"""Checking a heuristic against its reference loop, shared by the tests
of the heuristics that keep one (annealing, local search).

A solver and its reference must agree bit-for-bit: the same accepted
states, the same result, and recorded event logs that diff clean under
:func:`repro.api.diff_runs` (which ignores only the cache diagnostics
in which the two loops legitimately differ).
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.api import diff_runs
from repro.core import IntervalMapping, latency
from repro.engine.recorder import RunRecorder
from repro.exceptions import InfeasibleProblemError

from tests.strategies import (
    applications,
    comm_homogeneous_platforms,
    fully_heterogeneous_platforms,
    fully_homogeneous_platforms,
    interval_mappings,
)

PLATFORM_STRATEGIES = {
    # every processor alike: ties everywhere
    "fully-homogeneous": fully_homogeneous_platforms(1, 6),
    "comm-homogeneous": comm_homogeneous_platforms(1, 6),
    "fully-heterogeneous": fully_heterogeneous_platforms(1, 5),
    # processor indices past the 8- and 16-slot set hash tables
    "wide-m17": comm_homogeneous_platforms(17, 17),
}


@st.composite
def instances(draw, kind):
    """``(application, platform, up to two warm-start mappings)``."""
    app = draw(applications(max_stages=6))
    plat = draw(PLATFORM_STRATEGIES[kind])
    warm = draw(
        st.lists(interval_mappings(app.num_stages, plat.size), max_size=2)
    )
    return app, plat, warm


def run(fn, app, plat, threshold, *, recorded=True, **opts):
    """``(result or None, accepted trace, recorded events)`` of one solve."""
    recorder = RunRecorder() if recorded else None
    trace: list = []
    try:
        result = fn(app, plat, threshold, trace=trace, recorder=recorder, **opts)
        error = None
    except InfeasibleProblemError as exc:
        result, error = None, f"{type(exc).__name__}: {exc}"
    if recorder is None:
        return result, trace, None
    recorder.finish(result, error)
    return result, trace, recorder.events


def assert_same_result(got, want):
    assert (got is None) == (want is None)
    if want is not None:
        assert got.mapping == want.mapping
        assert got.latency == want.latency
        assert got.failure_probability == want.failure_probability
        assert got.extras == want.extras
        assert got.solver == want.solver


def assert_matches_reference(fn, reference, app, plat, threshold, **opts):
    """Solve with ``fn`` and ``reference`` and require identical walks;
    returns the solver's ``(result, trace, events)``."""
    got, got_trace, got_events = run(fn, app, plat, threshold, **opts)
    want, want_trace, want_events = run(reference, app, plat, threshold, **opts)
    report = diff_runs(want_events, got_events)
    assert report.ok, report.summary()
    assert got_trace == want_trace
    assert_same_result(got, want)
    # the unrecorded walk is the recorded one
    plain, plain_trace, _ = run(fn, app, plat, threshold, recorded=False, **opts)
    assert plain_trace == got_trace
    assert_same_result(plain, got)
    return got, got_trace, got_events


def all_replicas_latency(app, plat):
    """Latency of the one-interval mapping on every processor."""
    everything = IntervalMapping.single_interval(
        app.num_stages, set(range(1, plat.size + 1))
    )
    return latency(everything, app, plat)
