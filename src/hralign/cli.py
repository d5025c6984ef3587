"""Command-line entry points.

Subcommands: generate, pretrain, adapt, baseline, ablate, eval, dump.
Every command that splits a manifest holds out the same pairs,
``split_pairs`` at ``dataset.HELDOUT_FRAC``. Every run writes a
resolved-config copy and a manifest of produced files into its output
directory. Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from .dataset import (
    ManifestError,
    _atomic_write,
    _atomic_write_csv,
    _atomic_write_json,
    generate_paired_set,
    load_manifest,
    save_manifest,
    split_pairs,
)
from .encoder import pretext_pretrain
from .evaluation import dump_embeddings, eval_downstream, eval_retrieval, run_arms
from .rng import RngState
from .trainer import (
    ModelCheckpoint,
    TrainConfig,
    format_config,
    load_config,
    save_run,
    train,
)

USAGE_ERROR = 1
RUNTIME_ERROR = 2


def _write_run_outputs(out_dir: str, config_text: str, produced: list[str]) -> None:
    os.makedirs(out_dir, exist_ok=True)
    _atomic_write(os.path.join(out_dir, "resolved_config.txt"), config_text.encode("utf-8"))
    files = {"produced": sorted(produced + ["resolved_config.txt", "files.json"])}
    _atomic_write_json(os.path.join(out_dir, "files.json"), files)


def _flat_args_text(args: argparse.Namespace, keys: list[str]) -> str:
    return "\n".join(f"{key} = {getattr(args, key)}" for key in keys) + "\n"


def _check_out_dir(path: str) -> None:
    """Every command with an output directory calls this before any work."""
    if os.path.exists(path) and not os.path.isdir(path):
        raise ValueError(f"cannot write output: {path} is not a directory")


def _load_train_config(args: argparse.Namespace, method: str) -> TrainConfig:
    """``--config`` then ``--set`` over the subcommand's ``method``, which neither may change."""
    mapping = {"method": method}
    if args.config is not None:
        mapping.update(load_config(args.config))
    for item in args.set or []:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        mapping[key.strip()] = value.strip()
    if mapping["method"] != method:
        raise ValueError(f"config sets method {mapping['method']!r}, but {args.command} trains {method!r}")
    config = TrainConfig.from_mapping(mapping)
    if args.out is not None:
        config = replace(config, out_dir=args.out)
    _check_out_dir(config.out_dir)
    return config


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args) -> int:
    _check_out_dir(args.out)
    os.makedirs(args.out, exist_ok=True)
    rng = RngState(args.seed)
    pairs = generate_paired_set(rng, args.tasks, args.pairs_per_task, args.gap)
    manifest = os.path.join(args.out, "manifest.json")
    save_manifest(pairs, manifest)
    _write_run_outputs(
        args.out,
        _flat_args_text(args, ["tasks", "pairs_per_task", "gap", "seed"]),
        ["manifest.json", "clips"],
    )
    print(f"generated {len(pairs)} pairs -> {manifest}")
    return 0


def cmd_pretrain(args) -> int:
    _check_out_dir(args.out)
    pairs = load_manifest(args.data)
    train, _ = split_pairs(pairs)
    clips = [p.human for p in train]
    rng = RngState(args.seed)
    backbone, history = pretext_pretrain(rng, clips, epochs=args.epochs, lr=args.lr)
    os.makedirs(args.out, exist_ok=True)
    config = TrainConfig(method="hr_align", seed=args.seed, steps=0, out_dir=args.out)
    checkpoint = ModelCheckpoint(config=config, backbone=backbone, rng=rng, step=0)
    ckpt_path = os.path.join(args.out, "backbone.ckpt")
    checkpoint.save(ckpt_path)
    _atomic_write_csv(
        os.path.join(args.out, "pretext_loss.csv"),
        ["epoch", "loss"],
        [[i + 1, repr(value)] for i, value in enumerate(history)],
    )
    _write_run_outputs(
        args.out,
        _flat_args_text(args, ["epochs", "lr", "seed"]),
        ["backbone.ckpt", "pretext_loss.csv"],
    )
    print(f"pretrained backbone over {args.epochs} epochs -> {ckpt_path}")
    return 0


def _finish_training(checkpoint, metrics, label) -> int:
    config = checkpoint.config
    ckpt_path = save_run(checkpoint, metrics)
    _write_run_outputs(config.out_dir, format_config(config), ["model.ckpt", "metrics.csv"])
    final = metrics.losses[-1] if metrics.rows else float("nan")
    print(f"{label}: {config.steps} steps, final loss {final:.4f} -> {ckpt_path}")
    return 0


def cmd_train(args) -> int:
    """``adapt`` trains hr_align, ``baseline <kind>`` the ``<kind>_baseline`` method."""
    if args.kind is None:
        method, label = "hr_align", "adapt"
    else:
        method, label = f"{args.kind}_baseline", f"baseline {args.kind}"
    config = _load_train_config(args, method)
    pairs, _ = split_pairs(load_manifest(args.data))
    backbone = ModelCheckpoint.load(args.backbone).backbone
    resume = ModelCheckpoint.load(args.resume) if args.resume else None
    checkpoint, metrics = train(config, pairs, backbone, resume)
    return _finish_training(checkpoint, metrics, label)


def cmd_ablate(args) -> int:
    config = _load_train_config(args, "hr_align")
    pairs = load_manifest(args.data)
    train, heldout = split_pairs(pairs)
    backbone = ModelCheckpoint.load(args.backbone).backbone
    runs = run_arms(config, train, heldout, backbone)
    rows = [run.row for run in runs]
    _atomic_write_json(os.path.join(config.out_dir, "ablation.json"), rows)
    keys = list(rows[0].keys())
    _atomic_write_csv(
        os.path.join(config.out_dir, "ablation.csv"), keys, [[row[k] for k in keys] for row in rows]
    )
    produced = ["ablation.json", "ablation.csv"] + [run.name for run in runs]
    _write_run_outputs(config.out_dir, format_config(config), produced)
    for run in runs:
        print(run.to_text())
    return 0


def cmd_eval(args) -> int:
    _check_out_dir(args.out)
    checkpoint = ModelCheckpoint.load(args.checkpoint)
    before = Path(args.checkpoint).read_bytes()
    pairs = load_manifest(args.data)
    _, heldout = split_pairs(pairs)
    adapted = not args.frozen
    retrieval = eval_retrieval(checkpoint, heldout, adapted=adapted)
    robot_clips = [p.robot for p in pairs]
    downstream = eval_downstream(checkpoint, robot_clips, adapted=adapted)
    if Path(args.checkpoint).read_bytes() != before:
        raise RuntimeError("evaluation mutated the checkpoint file")
    os.makedirs(args.out, exist_ok=True)
    report = {"retrieval": retrieval.to_dict(), "downstream": downstream.to_dict()}
    _atomic_write_json(os.path.join(args.out, "report.json"), report)
    text = retrieval.to_text() + downstream.to_text()
    _atomic_write(os.path.join(args.out, "report.txt"), text.encode("utf-8"))
    _write_run_outputs(
        args.out,
        _flat_args_text(args, ["checkpoint", "data", "frozen"]),
        ["report.json", "report.txt"],
    )
    print(text, end="")
    return 0


def _same_file(a: str, b: str) -> bool:
    """Whether two paths name one file: ``samefile`` when both exist, else
    the same resolved path."""
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def cmd_dump(args) -> int:
    if os.path.isdir(args.out):
        raise ValueError(f"cannot write output: {args.out} is a directory")
    for flag, path in (("--checkpoint", args.checkpoint), ("--data", args.data)):
        if _same_file(args.out, path):
            raise ValueError(f"cannot write output: {args.out} is the {flag} input")
    checkpoint = ModelCheckpoint.load(args.checkpoint)
    pairs = load_manifest(args.data)
    clips = [p.human for p in pairs] + [p.robot for p in pairs]
    descriptions = {p.pair_id: p.description.text for p in pairs}
    out_dir = os.path.dirname(os.path.abspath(args.out)) or "."
    os.makedirs(out_dir, exist_ok=True)
    dump_embeddings(checkpoint, clips, args.out, descriptions=descriptions, adapted=not args.frozen)
    print(f"wrote {len(clips)} embeddings -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hralign",
        description="Adapter-based cross-domain alignment of a frozen video encoder.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a paired human/robot dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--tasks", type=int, default=8)
    p.add_argument("--pairs-per-task", type=int, default=32)
    p.add_argument("--gap", type=float, default=0.7)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("pretrain", help="time-contrastive pretext on human clips")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--lr", type=float, default=3e-6)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_pretrain)

    def add_train_args(p):
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="config override")
        p.add_argument("--data", required=True)
        p.add_argument("--backbone", required=True)
        p.add_argument("--out", default=None, help="override out_dir")

    p = sub.add_parser("adapt", help="adapter alignment training")
    add_train_args(p)
    p.add_argument("--resume", default=None, help="checkpoint to resume from")
    p.set_defaults(func=cmd_train, kind=None)

    p = sub.add_parser("baseline", help="full fine-tune baselines")
    p.add_argument("kind", choices=("pret", "cls"))
    add_train_args(p)
    p.set_defaults(func=cmd_train, resume=None)

    p = sub.add_parser("ablate", help="train and score every arm: adapter positions, frozen, fine-tunes")
    add_train_args(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("eval", help="retrieval and downstream evaluation")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--frozen", action="store_true", help="evaluate the unadapted model")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("dump", help="write pooled clip embeddings as CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--frozen", action="store_true")
    p.set_defaults(func=cmd_dump)

    return parser


def run_parsed(parser: argparse.ArgumentParser, argv) -> int:
    """Parse ``argv`` (None: ``sys.argv``) and run the parsed ``func``
    under the error contract: 0 success, 1 a usage error (bad arguments, a
    missing input file), 2 a runtime error (an output that cannot be
    written, a ValueError, ManifestError or RuntimeError), each error
    printed as one ``error:`` line."""
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse: 0 for --help, 2 for usage problems; map the latter to 1
        return 0 if exc.code == 0 else USAGE_ERROR
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:  # an output path that cannot be written
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return RUNTIME_ERROR
    except (ValueError, ManifestError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


def cli_main(argv=None) -> int:
    return run_parsed(build_parser(), argv)


if __name__ == "__main__":
    raise SystemExit(cli_main())
