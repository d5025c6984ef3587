"""Cross-domain alignment of a frozen video encoder via residual adapters.

A small, fully deterministic laboratory: a float64 autodiff core, a
frame-wise conv encoder with a time-contrastive pretext, bottleneck
adapters at configurable insertion points, task-query attention pooling, a
symmetric human-robot contrastive alignment loss, a procedural paired
dataset with a controllable domain gap, and retrieval / downstream
evaluation of the adapted representation.
"""

from .adapter import AdapterBlock, adapter_forward
from .alignment import AlignmentBatchFeatures, hr_align_loss
from .dataset import (
    PairedDemo,
    VideoClip,
    generate_paired_set,
    load_manifest,
    sample_frames,
    save_manifest,
    split_pairs,
)
from .encoder import Backbone, pretext_pretrain
from .evaluation import (
    DownstreamReport,
    RetrievalReport,
    dump_embeddings,
    eval_downstream,
    eval_retrieval,
    run_arms,
)
from .optim import AdamState, adam_step
from .rng import RngState, fnv1a64
from .task_query import TaskDescription
from .tensor import Tensor
from .trainer import (
    MetricsLog,
    ModelCheckpoint,
    TrainConfig,
    train,
    train_baseline_cls,
    train_baseline_pret,
    train_hr_align,
)

__version__ = "0.1.0"
