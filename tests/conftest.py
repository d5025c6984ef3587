"""Session-scoped reference artifacts shared by trainer, evaluation and
acceptance tests.

The reference configuration: 8 tasks x 32 pairs, gap 0.7, seed 7; pretext
pre-training on the train-split human clips; the ablation grid's five
300-step arms, whose L arm is the default-config reference run. Built once
per session because several tests pin ordinals measured on exactly these
runs.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hralign.dataset import HELDOUT_FRAC, generate_paired_set, split_pairs
from hralign.encoder import pretext_pretrain
from hralign.evaluation import run_ablation_grid
from hralign.rng import RngState
from hralign.trainer import TrainConfig

REFERENCE_SEED = 7
REFERENCE_TASKS = 8
REFERENCE_PAIRS_PER_TASK = 32
REFERENCE_GAP = 0.7
PRETEXT_EPOCHS = 20
PRETEXT_LR = 3e-6
BASELINE_LR = 3e-4


@pytest.fixture(scope="session")
def reference_pairs():
    return generate_paired_set(
        RngState(REFERENCE_SEED), REFERENCE_TASKS, REFERENCE_PAIRS_PER_TASK, REFERENCE_GAP
    )


@pytest.fixture(scope="session")
def reference_split(reference_pairs):
    return split_pairs(reference_pairs, HELDOUT_FRAC)


@pytest.fixture(scope="session")
def reference_backbone(reference_split):
    train, _ = reference_split
    backbone, history = pretext_pretrain(
        RngState(REFERENCE_SEED),
        [p.human for p in train],
        epochs=PRETEXT_EPOCHS,
        lr=PRETEXT_LR,
    )
    backbone.pretext_history = history  # stashed for the pretext tests
    return backbone


@pytest.fixture(scope="session")
def reference_grid(reference_split, reference_backbone, tmp_path_factory):
    """(every ablation arm's run, backbone snapshot taken before training)."""
    train, heldout = reference_split
    snapshot = {
        name: t.data.copy() for name, t in reference_backbone.named_parameters().items()
    }
    base = TrainConfig(out_dir=str(tmp_path_factory.mktemp("grid")))
    return run_ablation_grid(base, train, heldout, reference_backbone), snapshot


@pytest.fixture(scope="session")
def reference_run(reference_grid):
    """(checkpoint, metrics, backbone snapshot taken before training) of the
    grid's L arm: its config is ``TrainConfig()`` but for ``out_dir``, which
    training never reads."""
    runs, snapshot = reference_grid
    run = next(run for run in runs if run.name == "L")
    return run.checkpoint, run.metrics, snapshot


@pytest.fixture(scope="session")
def small_pairs():
    """A light dataset for unit tests that just need real clips."""
    return generate_paired_set(RngState(11), 3, 6, 0.5)
