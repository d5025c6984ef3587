#!/usr/bin/env python3
"""End-to-end reference experiment.

Generates the paired dataset, pre-trains the frozen backbone on human
clips, trains and scores the ablation arms (adapter positions E, M, L, EML
and L without language; retrieval + downstream), evaluates the L arm's
checkpoint frozen as well, trains both full-fine-tune baselines, and writes
a summary table. The "adapted" summary is the L arm itself, so L trains
once. Takes about a minute on one CPU core at the default sizes.

Usage:
    python scripts/run_reference.py --out runs/reference
"""

import argparse
import json
import os
import sys
import time
from dataclasses import replace

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hralign import trainer
from hralign.dataset import _atomic_write, generate_paired_set, save_manifest, split_pairs
from hralign.encoder import pretext_pretrain
from hralign.evaluation import dump_embeddings, eval_downstream, eval_retrieval, run_ablation_grid
from hralign.rng import RngState
from hralign.trainer import TrainConfig, save_run

BASELINE_LR = 3e-4


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/reference")
    parser.add_argument("--tasks", type=int, default=8)
    parser.add_argument("--pairs-per-task", type=int, default=32)
    parser.add_argument("--gap", type=float, default=0.7)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--steps", type=int, default=300)
    parser.add_argument("--pretext-epochs", type=int, default=20)
    parser.add_argument("--baseline-steps", type=int, default=120)
    args = parser.parse_args()

    os.makedirs(args.out, exist_ok=True)
    t_start = time.time()

    print(f"[1/5] dataset: {args.tasks} tasks x {args.pairs_per_task} pairs, gap {args.gap}")
    pairs = generate_paired_set(RngState(args.seed), args.tasks, args.pairs_per_task, args.gap)
    save_manifest(pairs, os.path.join(args.out, "manifest.json"))
    train, heldout = split_pairs(pairs)

    print(f"[2/5] pretext pre-training, {args.pretext_epochs} epochs")
    backbone, history = pretext_pretrain(
        RngState(args.seed), [p.human for p in train], epochs=args.pretext_epochs
    )
    print(f"      pretext loss {history[0]:.4f} -> {history[-1]:.4f}")

    config = TrainConfig(
        steps=args.steps, seed=args.seed, out_dir=os.path.join(args.out, "ablation")
    )
    print(f"[3/5] ablation grid (E, M, L, EML, L without language), {args.steps} steps each")
    runs = run_ablation_grid(config, train, heldout, backbone)
    for run in runs:
        save_run(run.checkpoint, run.metrics)
        row = run.row
        print(
            f"      {run.name:>9}: adapter params {row['adapter_params']:>5}  "
            f"loss {row['final_loss']:.4f}  r2h@1 {row['r2h_recall1']:.3f}  "
            f"probe {row['probe_accuracy']:.3f}"
        )

    print("[4/5] evaluation: adapted (the L arm) vs frozen")
    adapted = {run.name: run for run in runs}["L"]
    checkpoint = adapted.checkpoint
    summary = {
        "adapted": {
            "retrieval": adapted.retrieval.to_dict(),
            "downstream": adapted.downstream.to_dict(),
        },
        "frozen": {
            "retrieval": eval_retrieval(checkpoint, heldout, adapted=False).to_dict(),
            "downstream": eval_downstream(
                checkpoint, [p.robot for p in pairs], adapted=False
            ).to_dict(),
        },
    }
    for tag, report in summary.items():
        print(
            f"      {tag:>7}: r2h@1 {report['retrieval']['r2h_recall1']:.3f}  "
            f"probe {report['downstream']['probe_accuracy']:.3f}  "
            f"bc {report['downstream']['bc_mse']:.5f}"
        )
    dump_embeddings(
        checkpoint,
        [p.human for p in heldout] + [p.robot for p in heldout],
        os.path.join(args.out, "embeddings.csv"),
        descriptions={p.pair_id: p.description.text for p in heldout},
        adapted=True,
    )

    print(f"[5/5] baselines, {args.baseline_steps} steps each")
    base = TrainConfig(steps=args.baseline_steps, seed=args.seed, learning_rate=BASELINE_LR)
    summary["baselines"] = {}
    for kind in ("pret", "cls"):
        _, metrics = trainer.train(replace(base, method=f"{kind}_baseline"), train, backbone)
        first, last = metrics.losses[0], metrics.losses[-1]
        summary["baselines"][f"{kind}_loss"] = [first, last]
        print(f"      {kind} {first:.3f} -> {last:.3f}")
    summary["ablation"] = [run.row for run in runs]

    _atomic_write(
        os.path.join(args.out, "summary.json"), json.dumps(summary, indent=2).encode("utf-8")
    )
    print(f"done in {time.time() - t_start:.0f}s -> {args.out}/summary.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
