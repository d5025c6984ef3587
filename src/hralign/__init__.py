"""Cross-domain alignment of a frozen video encoder via residual adapters.

A small, fully deterministic laboratory: a float64 autodiff core, a
frame-wise conv encoder with a time-contrastive pretext, bottleneck
adapters at configurable insertion points, task-query attention pooling, a
symmetric human-robot contrastive alignment loss, a procedural paired
dataset with a controllable domain gap, and retrieval / downstream
evaluation of the adapted representation.
"""

__version__ = "0.1.0"
