#!/usr/bin/env python3
"""hralign benchmark: one workload, end-to-end metrics or a traced breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload align_L --seed 7 --seconds 50 --trace 0

``--trace 0`` pins itself and a speed probe to one CPU (see ``speed``), sets
up three times, then times whole repetitions for about ``--seconds`` seconds
of wall time and prints the end-to-end metrics, in CPU seconds scaled to the
reference speed. ``--trace 1`` runs
one untraced repetition, then one traced repetition (set-up included) and
prints the per-layer metrics. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. Results and
spans are also written under ``perfbench/out/``.

hralign is imported from ``src/`` of the checkout this file sits in; the
run exits with code 2 before printing a result when that source is absent.
"""

from __future__ import annotations

import argparse
import os
import sys

# Fixed before numpy loads: the BLAS thread count is part of the set-up.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="hralign benchmark")
    parser.add_argument("--workload", required=True, choices=("align_L", "align_EML", "finetune"))
    parser.add_argument("--seed", type=int, default=7, help="workload seed (README reference: 7)")
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="time budget for whole timed repetitions (at least one runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", default=os.path.join(HERE, "out"))
    return parser.parse_args(argv)


def import_hralign():
    """Import hralign from this checkout's src/ only."""
    init = os.path.join(SRC, "hralign", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: {init} not found; run from a full checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)
    import hralign

    if os.path.realpath(hralign.__file__) != os.path.realpath(init):
        raise SystemExit(f"error: imported hralign from {hralign.__file__}, expected {init}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_hralign()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    from perfbench.bench import run_benchmark

    return run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.out_dir,
                         ROOT, BLAS_THREADS, SETUP_REPEATS)


if __name__ == "__main__":
    raise SystemExit(main())
