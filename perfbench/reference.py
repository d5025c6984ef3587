#!/usr/bin/env python3
"""Record the quality values that every benchmark run is checked against.

    python3 perfbench/reference.py --workload align_L --seeds 0-63

For each seed, sets up once and runs one repetition at the reference scale,
then merges ``final_loss`` and the quality values ``bench.QUALITY_CHECKS``
names into ``perfbench/reference_quality.json``. A benchmark run whose
workload and seed are in that file fails a ``quality_reference.<name>``
check when a value is worse than recorded by more than its tolerance. Run
it on the commit whose quality later commits must keep.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench.run import import_hralign  # noqa: E402  (fixes the BLAS threads first)


def parse_seeds(text: str) -> list[int]:
    """``"0-3,7"`` -> ``[0, 1, 2, 3, 7]``."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("align_L", "align_EML", "finetune"))
    parser.add_argument("--seeds", required=True, help="e.g. 0-63 or 1,7,9")
    args = parser.parse_args(argv)
    import_hralign()
    from perfbench.bench import REFERENCE_FILE, quality_values
    from perfbench.workloads import REFERENCE, Ledger, build_setup, run_rep

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    for seed in parse_seeds(args.seeds):
        ledger = Ledger()
        with tempfile.TemporaryDirectory(prefix="reference-", dir=out_dir) as workdir:
            setup = build_setup(args.workload, seed, REFERENCE, ledger)
            rep = run_rep(args.workload, setup, seed, REFERENCE, workdir, ledger)
        if ledger.failed:
            print(f"{args.workload} seed {seed}: {ledger.failed} checks failed; not recorded")
            return 1
        values = quality_values(rep)
        # re-read before each write, so runs for other workloads can proceed in parallel
        table = {"workloads": {}}
        if os.path.exists(REFERENCE_FILE):
            with open(REFERENCE_FILE, encoding="utf-8") as fh:
                table = json.load(fh)
        table["workloads"].setdefault(args.workload, {})[str(seed)] = values
        table["workloads"][args.workload] = dict(
            sorted(table["workloads"][args.workload].items(), key=lambda kv: int(kv[0]))
        )
        with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=1, sort_keys=False)
            fh.write("\n")
        print(args.workload, seed, json.dumps(values), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
