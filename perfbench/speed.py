"""CPU time scaled to a reference machine speed, measured on the benchmark's CPU.

On a shared host one CPU's speed drifts by a quarter and more over minutes
(other tenants' load on the same core, frequency), and a run of a minute
cannot average that out: the same code measured in ten runs spread by more
than a quarter of its median. So the untraced run pins itself to one CPU and
starts a probe process pinned to the same CPU. Every 5 ms the probe wakes,
warms its caches with a few numpy operations on data that fits in L1, then
runs a fixed unit of the same operations (about 0.5 ms) and publishes how
many units it has done and the CPU time the units took. The two processes
take turns on the CPU every few milliseconds, so the probe's units per CPU
second over an interval are the speed the benchmark's own work ran at; as
only warm units are timed, that speed depends little on how much of the
cache the benchmark's work evicts. The interval's CPU seconds are scaled to
the reference speed: ``cpu × probe speed / REFERENCE_SPEED``. Without a
probe (the traced run, the tests) ``seconds`` is plain CPU time.
"""

from __future__ import annotations

import mmap
import os
import signal
import struct
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# Probe units per probe CPU second: a round figure near the probe's speed
# beside the seed code's benchmark runs on the reference box (2 cores, Xeon,
# numpy 2.4.6), so that scaled seconds are close to that box's CPU seconds.
REFERENCE_SPEED = 2000.0
WARM_OPS = 5  # untimed, before each unit
UNIT_OPS = 50  # matmul + relu + sum on a 16x27 @ 27x64 product, per unit
SLEEP_S = 0.005
# fewer probe units than this in an interval: its speed is not measured
MIN_UNITS = 20

# The probe and the benchmark share one anonymous page (nothing on disk):
# a sequence number (odd while the probe writes), units done, their CPU
# seconds, and a stop flag the benchmark sets.
_SEQ, _VALUES, _STOP = struct.Struct("<q"), struct.Struct("<dd"), struct.Struct("<q")
_VALUES_AT, _STOP_AT = _SEQ.size, _SEQ.size + _VALUES.size


@dataclass(frozen=True)
class Stamp:
    cpu: float  # this process's CPU seconds
    wall: float
    units: float  # probe units done, 0 without a probe
    probe_cpu: float  # the probe's CPU seconds for them


_page: mmap.mmap | None = None  # while a probe runs


def _read(page: mmap.mmap) -> tuple[float, float]:
    """(units, probe CPU seconds) as the probe last wrote them whole."""
    while True:
        (before,) = _SEQ.unpack_from(page, 0)
        units, cpu = _VALUES.unpack_from(page, _VALUES_AT)
        (after,) = _SEQ.unpack_from(page, 0)
        if before == after and before % 2 == 0:
            return units, cpu


def stamp() -> Stamp:
    cpu, wall = time.process_time(), time.perf_counter()
    if _page is None:
        return Stamp(cpu, wall, 0.0, 0.0)
    return Stamp(cpu, wall, *_read(_page))


def speed(a: Stamp, b: Stamp) -> float | None:
    """Probe units per probe CPU second between two stamps, or None without a probe."""
    if _page is None:
        return None
    units = b.units - a.units
    if units < MIN_UNITS:
        raise RuntimeError(f"the speed probe made {units:.0f} units in a {b.wall - a.wall:.3f} s interval")
    return units / (b.probe_cpu - a.probe_cpu)


def seconds(a: Stamp, b: Stamp) -> float:
    """CPU seconds from ``a`` to ``b``, at the reference speed while a probe runs."""
    rate = speed(a, b)
    cpu = b.cpu - a.cpu
    return cpu if rate is None else cpu * rate / REFERENCE_SPEED


def _ops(a, b, c, n: int) -> None:
    for _ in range(n):
        np.matmul(a, b, out=c)
        np.maximum(c, 0.0, out=c)
        c.sum()


def _run_probe(page: mmap.mmap, parent: int) -> None:
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((16, 27)), rng.standard_normal((27, 64))
    c = np.empty((16, 64))
    seq, units, cpu = 0, 0, 0.0
    # an orphaned probe (parent killed) stops too
    while _STOP.unpack_from(page, _STOP_AT)[0] == 0 and os.getppid() == parent:
        _ops(a, b, c, WARM_OPS)
        t0 = time.process_time()
        _ops(a, b, c, UNIT_OPS)
        cpu += time.process_time() - t0
        units += 1
        _SEQ.pack_into(page, 0, seq + 1)
        _VALUES.pack_into(page, _VALUES_AT, units, cpu)
        seq += 2
        _SEQ.pack_into(page, 0, seq)
        time.sleep(SLEEP_S)


def _reap(pid: int, timeout: float) -> bool:
    """Wait up to ``timeout`` seconds for the child to end; True once it has."""
    deadline = time.monotonic() + timeout
    while True:
        if os.waitpid(pid, os.WNOHANG)[0] == pid:
            return True
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)


@contextmanager
def probe():
    """Pin this process and a speed probe to one CPU for the ``with`` body;
    the probe is stopped and waited for on every way out."""
    global _page
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    page = mmap.mmap(-1, mmap.PAGESIZE)
    parent = os.getpid()
    pid = os.fork()
    if pid == 0:  # the probe: never returns into the caller's code
        try:
            _run_probe(page, parent)
        finally:
            os._exit(0)
    ended = False
    try:
        deadline = time.monotonic() + 30.0
        while _read(page)[0] < MIN_UNITS:
            if os.waitpid(pid, os.WNOHANG)[0] == pid:
                ended = True
                raise RuntimeError("the speed probe ended before it started measuring")
            if time.monotonic() > deadline:
                raise RuntimeError("the speed probe did not start")
            time.sleep(0.01)
        _page = page
        yield
    finally:
        _page = None
        _STOP.pack_into(page, _STOP_AT, 1)
        if not ended and not _reap(pid, 10.0):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        page.close()
        os.sched_setaffinity(0, allowed)
