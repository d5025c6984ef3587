"""In-memory span recording around calls into a package's functions.

A :class:`Tracer` keeps spans (name, start, end, parent, run id, attrs) in
a list. :class:`Patcher` replaces module globals and class attributes with
traced wrappers and puts every original back on :meth:`Patcher.restore`.
``perfbench.layers`` decides what to wrap and where.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans of one benchmark process; ``run`` tags every span it opens."""

    def __init__(self, run: str = "run"):
        self.run = run
        self.spans: list[Span] = []
        self._open: list[int] = []

    def begin(self, name: str, **attrs) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self.run, attrs))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        # spans close in LIFO order; a mismatch means a wrapper skipped its end
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")
        self._open.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        index = self.begin(name, **attrs)
        try:
            yield self.spans[index]
        finally:
            self.end(index)

    def is_open(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self._open)

    def write(self, path: str) -> None:
        rows = [
            [s.name, s.start, s.end, s.parent, s.run, s.attrs] for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "run", "attrs"], "spans": rows}, fh)


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``.

    Intervals are clipped to [lo, hi]; overlapping ones count once.
    """
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(span: Span, children: list[Span]) -> float:
    """A span's duration minus the part of it its child spans cover."""
    return span.duration - covered([(c.start, c.end) for c in children], span.start, span.end)


def children_index(spans: list[Span]) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(i)
    return kids


def traced(
    tracer: Tracer,
    name: str,
    fn: Callable,
    before: Callable[..., dict] | None = None,
    after: Callable[[Any, Span], None] | None = None,
) -> Callable:
    """``fn`` inside a span; ``before(*args, **kwargs)`` returns span attrs
    read before the call, ``after(result, span)`` may add more."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        attrs = before(*args, **kwargs) if before is not None else {}
        index = tracer.begin(name, **attrs)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if after is not None:
            after(result, tracer.spans[index])
        return result

    return wrapper


class Patcher:
    """Replaces attributes and restores the originals, in reverse order."""

    def __init__(self):
        self._saved: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_method(self, cls: type, attr: str, make_wrapper: Callable[[Callable], Callable]) -> None:
        """Wrap a plain method or a classmethod defined on ``cls``."""
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            self.set(cls, attr, classmethod(make_wrapper(original.__func__)))
        else:
            self.set(cls, attr, make_wrapper(original))

    @property
    def saved(self) -> list[tuple[Any, str, Any]]:
        return list(self._saved)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
