"""Synthetic solvers for engine fault-injection tests.

Top-level functions (picklable / fork-inheritable) that wrap a real
heuristic but crash, sleep, count invocations or fail transiently on
demand.  Registered per-test through the :func:`register_synthetic`
helper, which guarantees the registry is left clean.
"""

from __future__ import annotations

import contextlib
import time
from pathlib import Path

from repro.algorithms.heuristics import greedy_minimize_fp
from repro.api import Objective, SolverSpec
from repro.engine import register, unregister


def crashy_min_fp(application, platform, threshold, *, crash=False):
    """Delegates to greedy unless ``crash=True`` (then raises TypeError)."""
    if crash:
        raise TypeError("synthetic crash (bad solver opts)")
    return greedy_minimize_fp(application, platform, threshold)


def always_crash_min_fp(application, platform, threshold):
    """Crashes unconditionally (a permanently broken solver)."""
    raise RuntimeError("synthetic permanent crash")


def crash_at_min_fp(
    application, platform, threshold, *, crash_at, warm_starts=None
):
    """Crashes at one specific threshold, else delegates to greedy.

    Accepts (and forwards) ``warm_starts`` so it can be registered
    ``warm_startable=True`` — the warm-start chain fault-tolerance
    tests inject a mid-chain crash with it.
    """
    if threshold == crash_at:
        raise RuntimeError(f"synthetic crash at threshold {crash_at}")
    return greedy_minimize_fp(
        application, platform, threshold, warm_starts=warm_starts
    )


def sleepy_min_fp(application, platform, threshold, *, sleep=0.0):
    """Sleeps ``sleep`` seconds, then delegates to greedy."""
    if sleep:
        time.sleep(sleep)
    return greedy_minimize_fp(application, platform, threshold)


def counting_min_fp(application, platform, threshold, *, counter_file):
    """Appends one byte to ``counter_file`` per invocation, then solves.

    File-based so invocations are visible across worker processes.
    """
    with open(counter_file, "ab") as fh:
        fh.write(b"x")
    return greedy_minimize_fp(application, platform, threshold)


def ordered_min_fp(application, platform, threshold, *, order_file, label):
    """Appends ``label`` as one line to ``order_file``, then solves.

    The file lists invocations in the order the solver actually ran,
    which a client cannot observe from when its replies arrive.
    """
    with open(order_file, "a") as fh:
        fh.write(f"{label}\n")
    return greedy_minimize_fp(application, platform, threshold)


def flaky_min_fp(application, platform, threshold, *, fail_first, scratch):
    """Fails the first ``fail_first`` invocations (tracked in ``scratch``)."""
    path = Path(scratch)
    attempts = len(path.read_bytes()) if path.exists() else 0
    with open(path, "ab") as fh:
        fh.write(b"x")
    if attempts < fail_first:
        raise RuntimeError(
            f"synthetic transient failure {attempts + 1}/{fail_first}"
        )
    return greedy_minimize_fp(application, platform, threshold)


def gated_min_fp(application, platform, threshold, *, gate, counter_file):
    """Counts its invocation, waits for ``gate`` to exist, then solves.

    The batch ``max_buffered`` test uses this to deliberately stall
    tasks: invocations are visible immediately via ``counter_file``
    while the result is withheld until the test creates the gate file.
    A 10-second timeout keeps a buggy test from deadlocking the suite.
    """
    with open(counter_file, "ab") as fh:
        fh.write(b"x")
    deadline = time.monotonic() + 10.0
    gate_path = Path(gate)
    while not gate_path.exists():
        if time.monotonic() > deadline:
            raise RuntimeError("synthetic gate never opened (test bug)")
        time.sleep(0.01)
    return greedy_minimize_fp(application, platform, threshold)


def invocations(counter_file) -> int:
    """Number of solver invocations recorded in a counter/scratch file."""
    path = Path(counter_file)
    return len(path.read_bytes()) if path.exists() else 0


@contextlib.contextmanager
def register_synthetic(name, func, **spec_kwargs):
    """Register a synthetic min-FP threshold solver for the block's scope."""
    spec_kwargs.setdefault("objective", Objective.MIN_FP)
    spec_kwargs.setdefault("exact", False)
    spec_kwargs.setdefault("needs_threshold", True)
    register(SolverSpec(name=name, func=func, **spec_kwargs))
    try:
        yield name
    finally:
        unregister(name)
