"""Medians, quartiles and spreads of benchmark results.

    python3 bench/summary.py [RESULT.json ...] [--write BENCH.json]

With no files, reads every result under .bench_runs/results. Prints, per
workload and metric, the median, the quartiles and the spread (the
distance between the quartiles as a share of the median), and marks
end-to-end metrics whose spread exceeds a third of their bound in
BENCHMARK.json. ``--write`` stores the summary with each group's
manifests, as the committed baseline files under bench/baseline do.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def summarize(results: list[dict]) -> dict:
    groups: dict[str, list[dict]] = {}
    for r in results:
        groups.setdefault(f"{r['workload']}/trace{r['trace']}", []).append(r)
    out = {}
    for key, rs in sorted(groups.items()):
        metrics = {}
        for name in rs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in rs]
            q1, med, q3 = quartiles(vals)
            metrics[name] = {
                "unit": rs[0]["metrics"][name]["unit"],
                "median": med, "q1": q1, "q3": q3, "spread": spread(vals), "n": len(vals),
            }
        out[key] = {
            "runs": len(rs),
            "seeds": sorted(r["seed"] for r in rs),
            "attempted": sum(r["attempted"] for r in rs),
            "failed": sum(r["failed"] for r in rs),
            "metrics": metrics,
            "manifest": rs[0]["manifest"],
        }
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("files", nargs="*")
    ap.add_argument("--write", help="write the summary as JSON to this path")
    args = ap.parse_args()
    files = args.files or sorted(glob.glob(os.path.join(ROOT, ".bench_runs", "results", "*.json")))
    results = []
    for path in files:
        with open(path) as fh:
            results.append(json.load(fh))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    summary = summarize(results)
    for key, g in summary.items():
        print(f"{key}: {g['runs']} runs, {g['failed']}/{g['attempted']} failed")
        for name, m in g["metrics"].items():
            flag = ""
            if name in bounds and name != "setup_s" and m["spread"] > bounds[name] / 3:
                flag = f"  <- spread above a third of bound {bounds[name]}"
            print(f"  {name:40s} {m['median']:12.6g} {m['unit']:6s} q1 {m['q1']:.6g} q3 {m['q3']:.6g} spread {m['spread']:.4f}{flag}")
    if args.write:
        with open(args.write, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
