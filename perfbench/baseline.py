"""Run every workload once per seed and summarise the end-to-end metrics.

    python3 perfbench/baseline.py [--seeds 10] [--workload NAME] [--write]

Each run is a fresh interpreter (``run.py``), one at a time.  For each
metric it prints the median of the runs and the spread, the distance
between the first and third quartile as a share of the median, next to
the metric's bound in ``BENCHMARK.json``.  ``--write`` stores the runs
and their summary in ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from run import ROOT, provenance, run_one


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = list(range(1, args.seeds + 1))
    summary: dict = {}
    for name in names:
        results = [run_one(name, seed, spec["run_seconds"], 0)
                   for seed in seeds]
        summary[name] = {
            "correct": all(r["correct"] for r in results),
            "error_ratio": sum(r["failed"] for r in results)
            / sum(r["attempted"] for r in results),
            "metrics": {m: summarise([r["metrics"][m]["value"]
                                      for r in results]) for m in bounds},
        }
        for metric, row in summary[name]["metrics"].items():
            print(f"{name:12} {metric:12} median {row['median']:10.4f}  "
                  f"spread {row['spread']:.3f}  bound {bounds[metric]}",
                  flush=True)
    if args.write:
        doc = {"seeds": seeds, "run_seconds": spec["run_seconds"],
               "provenance": provenance(), "workloads": summary}
        (ROOT / "perfbench" / "baseline.json").write_text(
            json.dumps(doc, indent=1) + "\n")
    return 0 if all(s["correct"] for s in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
