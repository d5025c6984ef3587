#!/usr/bin/env python3
"""Summarise result files into one trajectory point.

    python3 perfbench/trajectory.py --label seed perfbench/out/result-*.json

Writes ``perfbench/trajectory/BENCH_<label>.json``: per workload, the median
and quartiles of each end-to-end metric over the untraced results, the
per-layer metrics of the traced result(s) (median when several), the
quality values and digests per seed, and the provenance of every result
(per seed, untraced and traced apart).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))


def summarise(records: list[dict]) -> dict:
    names = list(records[0]["metrics"])
    out = {}
    for name in names:
        values = [r["metrics"][name] for r in records]
        entry = {"median": statistics.median(values), "n": len(values)}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3)
        out[name] = entry
    return out


def build(paths: list[str], label: str) -> dict:
    by_workload: dict[str, dict[str, list[dict]]] = {}
    for path in sorted(paths):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        kind = "traced" if "trace.overhead_frac" in record["metrics"] else "untraced"
        workload = record["provenance"]["workload"]
        by_workload.setdefault(workload, {"untraced": [], "traced": []})[kind].append(record)
    point = {"label": label, "workloads": {}}
    for workload, kinds in sorted(by_workload.items()):
        records = kinds["untraced"] + kinds["traced"]
        if not all(r["correct"] for r in records):
            raise SystemExit(f"{workload}: a result is not correct; no trajectory point")
        point["workloads"][workload] = {
            "end_to_end": summarise(kinds["untraced"]) if kinds["untraced"] else {},
            "per_layer": summarise(kinds["traced"]) if kinds["traced"] else {},
            "quality_by_seed": {
                str(r["provenance"]["seed"]): r["quality"] for r in kinds["untraced"]
            },
            "digests_by_seed": {
                str(r["provenance"]["seed"]): r["digests"] for r in kinds["untraced"]
            },
            "provenance_by_seed": {
                kind: {str(r["provenance"]["seed"]): r["provenance"] for r in kinds[kind]}
                for kind in ("untraced", "traced")
            },
        }
    return point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("results", nargs="+")
    args = parser.parse_args(argv)
    point = build(args.results, args.label)
    out = os.path.join(HERE, "trajectory", f"BENCH_{args.label}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(point, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
