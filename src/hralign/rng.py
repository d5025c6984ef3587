"""Counter-based pseudo-random numbers.

A stream is fully described by a (seed, position) pair: draw ``i`` of seed
``s`` is a fixed 64-bit mixing function of ``s + (i+1) * golden``. All
arithmetic is integer (or IEEE float built from integers), so identical
states produce identical draws on every platform, and a serialized state
resumes the exact sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x00000100000001B3


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash; the fixed vocabulary-hash of this artifact."""
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK
    return h


def _mix(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _mix_array(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


@dataclass
class RngState:
    """Seedable deterministic generator; ``position`` counts raw draws."""

    seed: int
    position: int = field(default=0)

    def __post_init__(self):
        self.seed = int(self.seed) & _MASK
        self.position = int(self.position) & _MASK

    def state(self) -> tuple[int, int]:
        return (self.seed, self.position)

    @classmethod
    def from_state(cls, state) -> "RngState":
        seed, position = state
        return cls(seed, position)

    def derive(self, *tags) -> "RngState":
        """A fresh independent stream keyed by this seed plus ``tags``.

        Tags may be ints or strings. Does not consume from this stream.
        """
        s = self.seed
        for tag in tags:
            if isinstance(tag, str):
                tag = fnv1a64(tag.encode("utf-8"))
            s = _mix(s ^ _mix(int(tag) & _MASK))
        return RngState(s)

    # raw draws ------------------------------------------------------------

    def next_u64(self) -> int:
        self.position = (self.position + 1) & _MASK
        return _mix((self.seed + self.position * _GOLDEN) & _MASK)

    def u64(self, n: int) -> np.ndarray:
        """Vectorized draws; bit-identical to ``n`` calls of next_u64, the
        position wrapping modulo 2**64 in both."""
        idx = np.arange(1, n + 1, dtype=np.uint64) + np.uint64(self.position)
        out = _mix_array(np.uint64(self.seed) + idx * np.uint64(_GOLDEN))
        self.position = (self.position + n) & _MASK
        return out

    # derived distributions --------------------------------------------------

    def uniform(self, shape, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """An array of ``shape`` of uniform floats in [low, high) with 53-bit
        resolution."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        u = (self.u64(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return (low + (high - low) * u).reshape(shape)

    def normal(self, shape):
        """An array of standard normals via Box-Muller; consumes two draws
        per pair."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        m = (n + 1) // 2
        d = self.u64(2 * m)
        u1 = ((d[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53  # (0, 1]
        u2 = (d[1::2] >> np.uint64(11)).astype(np.float64) * 2.0**-53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.empty(2 * m, dtype=np.float64)
        z[0::2] = r * np.cos(theta)
        z[1::2] = r * np.sin(theta)
        return z[:n].reshape(shape)

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError(f"randint: n must be positive, got {n}")
        return bounded(self.next_u64(), n)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates shuffle of range(n) (``shuffled`` on one ``u64``
        call); consumes n-1 draws."""
        return np.array(shuffled(iter(self.u64(max(n - 1, 0)).tolist()), n), dtype=np.int64)


def bounded(draw: int, n: int) -> int:
    """A 64-bit ``draw`` mapped into [0, n): ``(draw * n) >> 64`` on Python
    ints, the map of ``randint``, so a batch drawn by one ``u64`` call and
    mapped here equals as many ``randint`` calls."""
    return (draw * n) >> 64


def shuffled(draws: Iterator[int], n: int) -> list[int]:
    """range(n) shuffled by Fisher-Yates on the next n - 1 of ``draws``:
    for i from n - 1 down to 1, swap entry i with entry ``bounded(d, i + 1)``."""
    arr = list(range(n))
    for i, d in zip(range(n - 1, 0, -1), draws):  # range first: no draw past the last
        j = (d * (i + 1)) >> 64  # bounded(d, i + 1), inlined in this hot loop
        arr[i], arr[j] = arr[j], arr[i]
    return arr
