"""Summarize result files across runs (seeds) per workload.

    python3 bench/summarize.py [RESULT.json ...]   # default: bench/results/*

For each workload and metric: the number of runs, the median over runs,
the first and third quartiles (statistics.quantiles, n=4) and their
distance as a share of the median.  Counts, which must repeat exactly, are
also reported as the set of distinct values seen.  Prints JSON.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))


def summarize(paths):
    by_key = {}
    env = {}
    for path in paths:
        with open(path) as fh:
            rec = json.load(fh)
        if rec["failed"]:
            raise SystemExit(f"{path}: {rec['failed']} failed ops")
        key = (rec["workload"], rec["trace"])
        runs = by_key.setdefault(key, {"runs": 0, "ops": 0, "values": {}})
        runs["runs"] += 1
        runs["ops"] += rec["attempted"]
        for name, m in rec["metrics"].items():
            runs["values"].setdefault(name, (m["unit"], []))[1].append(m["value"])
        env = rec["environment"]
    out = {"environment": env, "workloads": {}}
    for (workload, trace), runs in sorted(by_key.items()):
        table = {}
        for name, (unit, vals) in runs["values"].items():
            med = statistics.median(vals)
            row = {"unit": unit, "runs": len(vals), "median": med}
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                row.update(q1=q1, q3=q3,
                           spread=(q3 - q1) / med if med else None)
            if unit in ("count", "B"):
                row["distinct"] = sorted(set(vals))
            table[name] = row
        out["workloads"].setdefault(workload, {})[
            "per_layer" if trace else "end_to_end"] = {
                "runs": runs["runs"], "ops_attempted": runs["ops"],
                "metrics": table}
    return out


def main(argv):
    paths = argv or sorted(glob.glob(os.path.join(BENCH, "results", "*.json")))
    json.dump(summarize(paths), sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main(sys.argv[1:])
