#!/usr/bin/env python3
"""End-to-end reference experiment.

Generates the paired dataset, pre-trains the frozen backbone on human
clips, runs the adapter alignment, both full-fine-tune baselines, and the
position/language ablation grid, then evaluates everything (retrieval +
downstream) and writes a summary table. Takes a few minutes on one CPU
core at the default sizes.

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

from hralign.dataset import _atomic_write, generate_paired_set, save_manifest, split_pairs
from hralign.encoder import pretext_pretrain
from hralign.evaluation import dump_embeddings, eval_downstream, eval_retrieval
from hralign.rng import RngState
from hralign.trainer import (
    TrainConfig,
    format_config,
    run_ablation_grid,
    train_baseline_cls,
    train_baseline_pret,
    train_hr_align,
)

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
    parser.add_argument("--skip-ablation", action="store_true")
    args = parser.parse_args()

    os.makedirs(args.out, exist_ok=True)
    t_start = time.time()

    print(f"[1/6] dataset: {args.tasks} tasks x {args.pairs_per_task} pairs, gap {args.gap}")
    pairs = generate_paired_set(RngState(args.seed), args.tasks, args.pairs_per_task, args.gap)
    save_manifest(pairs, os.path.join(args.out, "manifest.json"))
    train, heldout = split_pairs(pairs, 0.25)

    print(f"[2/6] pretext pre-training, {args.pretext_epochs} epochs")
    backbone, history = pretext_pretrain(
        RngState(args.seed), [p.human for p in train], epochs=args.pretext_epochs
    )
    print(f"      pretext loss {history[0]:.4f} -> {history[-1]:.4f}")

    print(f"[3/6] adapter alignment, {args.steps} steps")
    config = TrainConfig(steps=args.steps, seed=args.seed, out_dir=os.path.join(args.out, "adapt"))
    checkpoint, metrics = train_hr_align(config, train, backbone)
    os.makedirs(config.out_dir, exist_ok=True)
    checkpoint.save(os.path.join(config.out_dir, "model.ckpt"))
    metrics.save(os.path.join(config.out_dir, "metrics.csv"))
    _atomic_write(
        os.path.join(config.out_dir, "resolved_config.txt"), format_config(config).encode("utf-8")
    )
    print(f"      loss {metrics.losses[0]:.4f} -> {metrics.losses[-1]:.4f}")

    print("[4/6] evaluation: adapted vs frozen")
    summary = {}
    for tag, adapted in (("adapted", True), ("frozen", False)):
        retrieval = eval_retrieval(checkpoint, heldout, adapted=adapted)
        downstream = eval_downstream(checkpoint, [p.robot for p in pairs], adapted=adapted)
        summary[tag] = {"retrieval": retrieval.to_dict(), "downstream": downstream.to_dict()}
        print(
            f"      {tag:>7}: r2h@1 {retrieval.r2h_recall1:.3f}  "
            f"probe {downstream.probe_accuracy:.3f}  bc {downstream.bc_mse:.5f}"
        )
    dump_embeddings(
        checkpoint,
        [p.human for p in heldout] + [p.robot for p in heldout],
        os.path.join(args.out, "embeddings.csv"),
        descriptions={p.pair_id: p.description.text for p in heldout},
        adapted=True,
    )

    print(f"[5/6] baselines, {args.baseline_steps} steps each")
    base = TrainConfig(
        steps=args.baseline_steps, seed=args.seed, learning_rate=BASELINE_LR
    )
    pret_ckpt, pret_metrics = train_baseline_pret(
        replace(base, method="pret_baseline"), train, backbone.copy().unfreeze()
    )
    cls_ckpt, cls_metrics = train_baseline_cls(
        replace(base, method="cls_baseline"), train, backbone.copy().unfreeze()
    )
    summary["baselines"] = {
        "pret_loss": [pret_metrics.losses[0], pret_metrics.losses[-1]],
        "cls_loss": [cls_metrics.losses[0], cls_metrics.losses[-1]],
    }
    print(
        f"      pret {pret_metrics.losses[0]:.3f} -> {pret_metrics.losses[-1]:.3f}   "
        f"cls {cls_metrics.losses[0]:.3f} -> {cls_metrics.losses[-1]:.3f}"
    )

    if not args.skip_ablation:
        print("[6/6] ablation grid (E, M, L, EML, L without language)")
        grid_config = replace(config, out_dir=os.path.join(args.out, "ablation"))
        runs = run_ablation_grid(grid_config, train, backbone, heldout=heldout)
        summary["ablation"] = [run.row for run in runs]
        for run in runs:
            print(
                f"      {run.name:>9}: adapter params {run.row['adapter_params']:>5}  "
                f"r2h@1 {run.row['r2h_recall1']:.3f}  probe {run.row['probe_accuracy']:.3f}"
            )

    _atomic_write(
        os.path.join(args.out, "summary.json"), json.dumps(summary, indent=2).encode("utf-8")
    )
    print(f"done in {time.time() - t_start:.0f}s -> {args.out}/summary.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
