#!/usr/bin/env python3
"""Compares two perfbench results (the JSON files run.py writes with --out).

    python3 perfbench/compare.py BASE.json NEW.json

Prints each metric of both runs and the relative change. Refuses, with exit
status 3, to compare results whose dispatched kernel ISA differs, whose
workload or trace mode differ, or whose build type differs: such numbers
measure different programs.
"""
import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    for key, where in (("isa", "provenance"), ("build_type", "provenance"),
                       ("workload", None), ("trace", None)):
        a = base[where][key] if where else base[key]
        b = new[where][key] if where else new[key]
        if a != b:
            print("refusing to compare: %s differs (%s vs %s)" % (key, a, b), file=sys.stderr)
            return 3
    for key in ("nproc", "cpu_model", "llc"):
        if base["provenance"][key] != new["provenance"][key]:
            print("warning: %s differs (%s vs %s)" % (key, base["provenance"][key],
                                                      new["provenance"][key]))
    print("%-34s %14s %14s %9s" % ("metric", "base", "new", "change"))
    for name, m in base["metrics"].items():
        if name not in new["metrics"]:
            continue
        a, b = m["value"], new["metrics"][name]["value"]
        change = "%+8.1f%%" % (100.0 * (b - a) / a) if a else "     n/a"
        print("%-34s %14.6g %14.6g %s %s" % (name, a, b, change, m["unit"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
