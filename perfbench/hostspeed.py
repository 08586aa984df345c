"""Host-speed reference: report timings at a nominal CPU speed.

On the shared 2-core hosts this benchmark runs on, the speed of a vCPU
drifts by up to 2x within seconds (another tenant on the same physical
core), which swamps any program change.  A fixed pure-Python loop that
never touches the program measures that speed, and each timing is
scaled by ``(NOMINAL_S / reference) ** elasticity``.  The elasticity is
the workload's own, fitted across speed swings with the idle-only
samples below: how a workload's times follow the reference depends on
its instruction mix and on the neighbour's (a daemon that also waits
on sockets follows it about as its square root).  Raw timings stay in
the report's ``details``.

The reference is only ever taken while the measured workload is idle,
so the workload's own CPU load never slows it (a change that added load
would otherwise shrink its own reported regression):

* in-process units (sweep passes, simulations, set-ups) run between two
  brackets of ``BRACKET_PASSES`` passes, one just before and one just
  after (:func:`timed`);
* the service workload never pauses, so a side process samples the
  reference every ``INTERVAL_S`` (:class:`Sampler`, ``python -m
  perfbench.hostspeed``: samples until its standard input closes, then
  prints ``[[perf_counter start, reference seconds], ...]``), and only
  the samples that overlap no request in flight are kept
  (:func:`idle_samples`).
"""

from __future__ import annotations

import json
import math
import select
import subprocess
import sys
from time import perf_counter
from typing import Callable, Sequence, TypeVar

from .common import ROOT, child_env, median

T = TypeVar("T")

#: reference-loop seconds at full speed on the 2-core reference host
NOMINAL_S = 0.010
INTERVAL_S = 0.2
#: reference passes on each side of an in-process unit (one pass is noisy)
BRACKET_PASSES = 3
#: slack around a request's busy interval when selecting idle samples
IDLE_MARGIN_S = 0.005


def reference_s() -> float:
    """Seconds one pass of the fixed reference loop takes right now."""
    start = perf_counter()
    counts: dict[int, int] = {}
    acc = 0.0
    for i in range(60_000):
        k = i & 1023
        counts[k] = counts.get(k, 0) + 1
        acc += math.sqrt(i) * 0.5
    return perf_counter() - start


def factor(reference: float, elasticity: float) -> float:
    """Multiplier taking a timing measured at ``reference`` speed to nominal."""
    return (NOMINAL_S / reference) ** elasticity


def bracket_s() -> list[float]:
    """``BRACKET_PASSES`` reference passes back to back (one side of a unit)."""
    return [reference_s() for _ in range(BRACKET_PASSES)]


def timed(fn: Callable[[], T], elasticity: float) -> tuple[T, float, float]:
    """Run ``fn`` between two brackets of reference passes; return its
    result, its wall seconds and the factor to nominal speed (from the
    median of the passes on both sides)."""
    before = bracket_s()
    start = perf_counter()
    result = fn()
    raw = perf_counter() - start
    return result, raw, factor(median(before + bracket_s()), elasticity)


def idle_samples(
    samples: Sequence[tuple[float, float]], busy: Sequence[tuple[float, float]]
) -> list[tuple[float, float]]:
    """The samples whose reference pass overlapped none of the ``busy``
    ``(start, end)`` intervals (``IDLE_MARGIN_S`` slack on each side)."""
    return [
        (at, ref)
        for at, ref in samples
        if not any(
            at < end + IDLE_MARGIN_S and start - IDLE_MARGIN_S < at + ref
            for start, end in busy
        )
    ]


def factor_at(
    samples: Sequence[tuple[float, float]], t: float, elasticity: float
) -> float:
    """Scale factor at ``perf_counter`` time ``t``: median reference of
    the samples within one second of it (nearest sample if none)."""
    near = [ref for at, ref in samples if abs(at - t) <= 1.0]
    if not near:
        near = [min(samples, key=lambda s: abs(s[0] - t))[1]]
    return factor(median(near), elasticity)


class Sampler:
    """The reference sampled in a child process while the block runs
    (keeps the sampling loop off the load generator's interpreter lock)."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.hostspeed"],
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def __enter__(self) -> "Sampler":
        return self

    def __exit__(self, *exc: object) -> None:
        self._proc.stdin.close()
        out = self._proc.stdout.read()
        self._proc.stdout.close()
        self._proc.wait(timeout=30)
        self.samples = [tuple(s) for s in json.loads(out)] if out else []


def _sample_until_stdin_closes() -> None:
    samples = []
    while True:
        samples.append((perf_counter(), reference_s()))
        ready, _, _ = select.select([sys.stdin], [], [], INTERVAL_S)
        if ready and not sys.stdin.read(1):
            break
    print(json.dumps(samples), flush=True)


if __name__ == "__main__":
    _sample_until_stdin_closes()
