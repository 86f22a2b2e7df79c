#!/usr/bin/env python3
"""The sose benchmark: one command that builds, runs and checks a workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--out <result.json>]

Run from the root of a checkout. It builds the sose libraries, the sosed
server and the perfbench binary from source (CMake, Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
workload for --seconds, checks its outputs, prints a human-readable report
and, as the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The full result, with provenance, is written to --out (default
<build>/results/<workload>-seed<n>-trace<t>.json). Exit status is 0 only
when every output checked out; see perfbench/README.md.
"""
import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["mc_dense_threshold", "mc_short_probes", "sketch_solve", "sosed_stream"]
BANDS = os.path.join(HERE, "bands.json")
# Set-up is measured in this many separate processes, half of them before
# the measuring run and half after it, plus the measuring run itself.
SETUP_SPAWNS = 30


def run_timeout(seconds):
    """How long one perfbench process may take: its measured time (or its
    first whole pass cycle, if that is longer), the overrun of its last
    pass, and start-up."""
    return 2 * seconds + 90


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    parser = argparse.ArgumentParser(allow_abbrev=False, description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)  # unknown arguments exit with status 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 1 <= args.seconds <= 3600:
        parser.error("--seconds must be in [1, 3600]")
    return args


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    """Configures once and builds incrementally; returns the build directory."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "perfbench", "sosed_bin"])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.call(step, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT) != 0:
                # A failed configure must not leave a cache that skips it next time.
                cache = os.path.join(out, "CMakeCache.txt")
                if step[1] == "-S" and os.path.exists(cache):
                    os.remove(cache)
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (log: %s)" % os.path.relpath(log_path, ROOT), 3)
    return out


def run_binary(out, args, extra):
    """Runs the perfbench binary; returns (spawn timestamp, exit code, result)."""
    rel = os.path.relpath(out, ROOT)
    cmd = [os.path.join(out, "perfbench"),
           "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds, "--trace=%d" % args.trace,
           "--sosed=" + os.path.join(out, "sose", "sosed"),
           "--socket=" + os.path.join(rel, "sosed-%d.sock" % os.getpid())] + extra
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=run_timeout(args.seconds))
    except subprocess.TimeoutExpired:
        fail("perfbench did not finish within %d s" % run_timeout(args.seconds), 4)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr[-4000:])
        fail("perfbench exited %d without a result" % proc.returncode, 4)
    return spawned, proc.returncode, result


def load_bands():
    with open(BANDS) as f:
        return json.load(f)


def check_bands(workload, rows, bands):
    """The m* reference check of an mc_* run; returns its misses.

    Every search's m* must lie in its row's band, and the mean over the
    run's searches of log(m*/ref) must lie within the workload's limit: a
    bias shared by every row shows in the mean long before it pushes a
    single search out of its band. `rows` are the binary's
    "<pass>,<row>,<m*>" lines; bands.json says how the limits were set.
    """
    reference = bands[workload]
    misses, logs = [], []
    for line in rows:
        pass_, tag, m_star = line.split(",")
        band = reference["rows"].get(tag)
        if band is None:
            misses.append("pass %s row %s: no reference band" % (pass_, tag))
            continue
        m = int(m_star)
        if not band["lo"] <= m <= band["hi"]:
            misses.append("pass %s row %s: m*=%d outside [%d, %d]"
                          % (pass_, tag, m, band["lo"], band["hi"]))
        logs.append(math.log(m / band["ref"]))
    if logs:
        mean = statistics.fmean(logs)
        limit = reference["mean_log_ratio_limit"]
        if abs(mean) > limit:
            misses.append("mean log(m*/ref) over %d searches is %.4f, outside +-%.4f"
                          % (len(logs), mean, limit))
    return misses


def source_digest():
    """SHA-256 over the benchmarked sources (the checkout need not be git)."""
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def report(args, result, setups, metrics, correct):
    """The human-readable report: every end-to-end metric by name and unit."""
    info = result["info"]
    prov = result["provenance"]
    p = print
    p("perfbench %s seed=%d trace=%d passes=%d" % (args.workload, args.seed, args.trace,
                                                    result["passes"]))
    p("  provenance: nproc=%s cpu=%r llc=%s isa=%s (source=%s) build=%s commit=%s source=%s"
      % (prov["nproc"], prov["cpu_model"], prov["llc"], prov["isa"], prov["isa_source"],
         prov["build_type"], prov["commit"], prov["source_digest"]))
    for name, m in metrics.items():
        p("  %-34s %14.6g %-6s" % (name, m["value"], m["unit"]))
    attempted, failed = result["attempted"], result["failed"]
    p("  %-34s %14.6g %-6s (%d of %d operations)" % ("failed_frac", failed / attempted,
                                                       "ratio", failed, attempted))
    if args.trace == 0:
        p("  setup_s: median of %d set-ups: %s" % (len(setups),
                                                  " ".join("%.4f" % s for s in setups)))
        p("  op = %s; op_p50_ms %s; op_tail_ms %s is p%g of %s samples"
          " (highest percentile with >= 10 beyond)"
          % (info["op"], info["op_p50_ms"], info["op_tail_ms"],
             int(info["op_tail_level_permille"]) / 10.0, info["op_samples"]))
        p("  work_per_s counts %s" % info["work"])
        if args.workload == "sosed_stream":
            p("  update_rows_per_s %.6g rows/s, update_p50_ms %s, update_p%g_ms %s"
              % (metrics["work_per_s"]["value"], info["op_p50_ms"],
                 int(info["op_tail_level_permille"]) / 10.0, info["op_tail_ms"]))
            p("  query_p50_ms %s, query_p%g_ms %s (%s samples)"
              % (info["query_p50_ms"], int(info["query_tail_level_permille"]) / 10.0,
                 info["query_tail_ms"], info["query_samples"]))
    for miss in result["misses"]:
        p("  MISS: " + miss)
    p("  correct: %s" % ("yes" if correct else "NO"))


def main(argv):
    args = parse_args(argv)
    out = build()
    setups = []

    def measure_setups(count):
        for _ in range(count):
            spawned, code, result = run_binary(out, args, ["--setup-only"])
            if code != 0:
                fail("set-up failed: %s" % result["misses"], 5)
            setups.append(result["first_call"] - spawned)

    if args.trace == 0:
        measure_setups(SETUP_SPAWNS // 2)
    trace_out = os.path.join(out, "trace-%s-seed%d.csv" % (args.workload, args.seed))
    spawned, code, result = run_binary(
        out, args, ["--trace-out=" + os.path.relpath(trace_out, ROOT)] if args.trace else [])
    if result["rows"]:
        misses = check_bands(args.workload, result["rows"], load_bands())
        result["misses"] += misses
        # `failed` counts operations; the run-mean miss is not one of them.
        result["failed"] = min(result["attempted"], result["failed"] + len(misses))
    metrics = dict((k, v) for k, v in result["metrics"].items())
    if args.trace == 0:
        setups.append(result["first_call"] - spawned)
        measure_setups(SETUP_SPAWNS - SETUP_SPAWNS // 2)
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    result["provenance"]["commit"] = git_commit()
    result["provenance"]["source_digest"] = source_digest()
    result["provenance"]["seed"] = args.seed
    correct = code == 0 and not result["misses"] and result["attempted"] >= 1
    report(args, result, setups, metrics, correct)

    full = dict(result, metrics=metrics, setups=setups, correct=correct)
    out_path = args.out or os.path.join(out, "results", "%s-seed%d-trace%d.json"
                                        % (args.workload, args.seed, args.trace))
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    with open(out_path, "w") as f:
        json.dump(full, f, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
