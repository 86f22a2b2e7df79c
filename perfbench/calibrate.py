#!/usr/bin/env python3
"""Calibrates perfbench/bands.json, the reference m* of every threshold search.

    python3 perfbench/calibrate.py

Runs both mc_* workloads on SEEDS calibration seeds, without the band
check, and sets from the m* of each run's first PASSES passes:

- per row, the reference m* (the geometric mean) and a band: the smallest
  and largest m* seen, widened in log space by ROW_SDS standard deviations
  of log m* on each side. (Not interquartile ranges: m* lies on the search's
  grid, and a row whose m* mostly takes one value has an IQR of 0.)
- per workload, a limit on the mean over a run's searches of log(m*/ref):
  MEAN_SDS standard deviations of that mean over the calibration runs.

A distribution-preserving change to the sampling (same law of m*, another
random stream) draws from the distributions measured here, so it passes.
The script then checks the bands on the held-out seed HELD_OUT, and checks
that the same held-out m* scaled by BIAS and by 1/BIAS are refused; it
exits non-zero if either check goes the wrong way.
"""
import json
import math
import statistics
import sys

import run

SEEDS = range(1, 17)
PASSES = 4
HELD_OUT = 1000003
ROW_SDS = 3.0
MEAN_SDS = 4.0
BIAS = 1.2
MC_WORKLOADS = ["mc_dense_threshold", "mc_short_probes"]


def first_passes(out, workload, seed):
    """The "<pass>,<row>,<m*>" rows of the first PASSES passes on `seed`."""
    args = run.parse_args(["--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--trace", "0"])
    _, code, result = run.run_binary(out, args, [])
    if code != 0:
        sys.exit("%s seed %d failed: %s" % (workload, seed, result["misses"]))
    return [line for line in result["rows"] if int(line.split(",")[0]) < PASSES]


def calibrate(out, workload):
    runs = [first_passes(out, workload, seed) for seed in SEEDS]
    logs = {}
    for rows in runs:
        for line in rows:
            _, tag, m_star = line.split(",")
            logs.setdefault(tag, []).append(math.log(int(m_star)))
    reference = {"rows": {}}
    for tag in sorted(logs):
        values = logs[tag]
        spread = ROW_SDS * statistics.stdev(values)
        reference["rows"][tag] = {
            "ref": math.exp(statistics.fmean(values)),
            "lo": math.floor(math.exp(min(values) - spread)),
            "hi": math.ceil(math.exp(max(values) + spread)),
        }
        print("%s %s: %d searches, m* in [%d, %d], band [%d, %d]"
              % (workload, tag, len(values), round(math.exp(min(values))),
                 round(math.exp(max(values))), reference["rows"][tag]["lo"],
                 reference["rows"][tag]["hi"]))
    means = []
    for rows in runs:
        logs = []
        for line in rows:
            _, tag, m_star = line.split(",")
            logs.append(math.log(int(m_star) / reference["rows"][tag]["ref"]))
        means.append(statistics.fmean(logs))
    reference["mean_log_ratio_limit"] = MEAN_SDS * statistics.stdev(means)
    print("%s: run means of log(m*/ref) sd %.4f, limit %.4f"
          % (workload, statistics.stdev(means), reference["mean_log_ratio_limit"]))
    return reference


def scaled(rows, factor):
    out = []
    for line in rows:
        pass_, tag, m_star = line.split(",")
        out.append("%s,%s,%d" % (pass_, tag, round(int(m_star) * factor)))
    return out


def main():
    out = run.build()
    bands = {"calibration": {
        "seeds": "%d..%d, first %d passes each" % (SEEDS[0], SEEDS[-1], PASSES),
        "rule": "row band: extremes of log m* widened by %g sd each side; "
                "mean_log_ratio_limit: %g sd of the run mean of log(m*/ref)"
                % (ROW_SDS, MEAN_SDS),
        "held_out": HELD_OUT}}
    for workload in MC_WORKLOADS:
        bands[workload] = calibrate(out, workload)
    with open(run.BANDS, "w") as f:
        json.dump(bands, f, indent=1, sort_keys=True)
        f.write("\n")
    ok = True
    for workload in MC_WORKLOADS:
        rows = first_passes(out, workload, HELD_OUT)
        misses = run.check_bands(workload, rows, bands)
        print("held-out seed %d on %s: %d searches, misses: %s"
              % (HELD_OUT, workload, len(rows), misses or "none"))
        ok = ok and not misses
        for factor in (BIAS, 1 / BIAS):
            misses = run.check_bands(workload, scaled(rows, factor), bands)
            print("  m* x %.3f: %s" % (factor, misses[-1] if misses else "NOT CAUGHT"))
            ok = ok and bool(misses)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
