#!/usr/bin/env python3
"""End-to-end reference experiment.

Generates the paired dataset, pre-trains the frozen backbone on human
clips, then trains and scores every arm of ``evaluation.ARMS`` (adapter
positions E, M, L, EML, L without language, the frozen model and the full
fine-tunes pret_ft and cls_ft; retrieval + downstream each) and writes a
summary: ``adapted`` is the L arm, ``frozen`` the frozen arm,
``baselines`` the fine-tunes' first and last losses, and ``ablation``
every arm's row. Takes about a minute on one CPU core at the default sizes.

Usage:
    python scripts/run_reference.py --out runs/reference

Exit codes, as for `hralign`: 0 success, 1 usage error (such as an unknown
flag), 2 runtime error (such as a split with fewer than 2 held-out pairs,
found before anything is written).
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hralign.cli import run_parsed
from hralign.dataset import _atomic_write_json, generate_paired_set, save_manifest, split_pairs
from hralign.encoder import pretext_pretrain
from hralign.evaluation import ARMS, dump_embeddings, run_arms
from hralign.rng import RngState
from hralign.trainer import TrainConfig


def reference(args: argparse.Namespace) -> int:
    t_start = time.time()
    print(f"[1/4] dataset: {args.tasks} tasks x {args.pairs_per_task} pairs, gap {args.gap}")
    pairs = generate_paired_set(RngState(args.seed), args.tasks, args.pairs_per_task, args.gap)
    train, heldout = split_pairs(pairs)

    print(f"[2/4] pretext pre-training, {args.pretext_epochs} epochs")
    backbone, history = pretext_pretrain(
        RngState(args.seed), [p.human for p in train], epochs=args.pretext_epochs
    )
    print(f"      pretext loss {history[0]:.4f} -> {history[-1]:.4f}")

    config = TrainConfig(
        steps=args.steps, seed=args.seed, out_dir=os.path.join(args.out, "ablation")
    )
    print(f"[3/4] arms {', '.join(ARMS)}, up to {args.steps} steps each")
    runs = {run.name: run for run in run_arms(config, train, heldout, backbone)}
    for run in runs.values():
        print(f"      {run.to_text()}")

    print("[4/4] manifest, embeddings and summary")
    save_manifest(pairs, os.path.join(args.out, "manifest.json"))
    dump_embeddings(
        runs["L"].checkpoint,
        [p.human for p in heldout] + [p.robot for p in heldout],
        os.path.join(args.out, "embeddings.csv"),
        descriptions={p.pair_id: p.description.text for p in heldout},
        adapted=True,
    )
    summary = {
        tag: {"retrieval": runs[arm].retrieval.to_dict(), "downstream": runs[arm].downstream.to_dict()}
        for tag, arm in (("adapted", "L"), ("frozen", "frozen"))
    }
    summary["baselines"] = {
        f"{kind}_loss": runs[f"{kind}_ft"].metrics.losses[:1] + runs[f"{kind}_ft"].metrics.losses[-1:]
        for kind in ("pret", "cls")
    }
    summary["ablation"] = [run.row for run in runs.values()]
    _atomic_write_json(os.path.join(args.out, "summary.json"), summary)
    print(f"done in {time.time() - t_start:.0f}s -> {args.out}/summary.json")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/reference")
    parser.add_argument("--tasks", type=int, default=8)
    parser.add_argument("--pairs-per-task", type=int, default=32)
    parser.add_argument("--gap", type=float, default=0.7)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--steps", type=int, default=300)
    parser.add_argument("--pretext-epochs", type=int, default=20)
    parser.set_defaults(func=reference)
    return run_parsed(parser, None)


if __name__ == "__main__":
    raise SystemExit(main())
