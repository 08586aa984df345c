"""Greedy split-and-replicate against its per-trial scalar reference.

The greedy solvers score every enrolment trial through
``EvaluationCache.objectives_with``; the oracle in
:mod:`tests.algorithms.greedy_reference` builds each trial mapping and
evaluates it from scratch with the plain metric functions.  The two
must agree bit-for-bit: same mapping, latency, FP and extras, the same
infeasibility verdicts, and the same recorded decision trajectory
(constructions, enrolments with their scores, candidates).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.heuristics import (
    greedy_minimize_fp,
    greedy_minimize_latency,
)
from repro.api import diff_runs, record_run
from repro.core import IntervalMapping, Platform, latency
from repro.core.serialization import mapping_to_dict
from repro.engine.recorder import RunRecorder
from repro.exceptions import InfeasibleProblemError, InvalidMappingError

from tests.algorithms.greedy_reference import (
    reference_greedy_minimize_fp,
    reference_greedy_minimize_latency,
)
from tests.helpers import make_instance
from tests.strategies import (
    applications,
    comm_homogeneous_platforms,
    fully_heterogeneous_platforms,
    fully_homogeneous_platforms,
    interval_mappings,
)

KINDS = ["comm-homogeneous", "fully-heterogeneous", "fully-homogeneous-failhet"]

QUERIES = {
    "min-fp": (greedy_minimize_fp, reference_greedy_minimize_fp),
    "min-latency": (greedy_minimize_latency, reference_greedy_minimize_latency),
}


def _run(fn, app, plat, threshold, **opts):
    """``(result or None, recorded events)`` of one solve."""
    recorder = RunRecorder()
    try:
        result = fn(app, plat, threshold, recorder=recorder, **opts)
        error = None
    except InfeasibleProblemError as exc:
        result, error = None, f"{type(exc).__name__}: {exc}"
    recorder.finish(result, error)
    return result, recorder.events


def _assert_matches_reference(query, app, plat, threshold, **opts):
    fn, reference = QUERIES[query]
    got, got_events = _run(fn, app, plat, threshold, **opts)
    want, want_events = _run(reference, app, plat, threshold, **opts)
    report = diff_runs(want_events, got_events)
    assert report.ok, report.summary()
    assert (got is None) == (want is None)
    if want is not None:
        assert got.mapping == want.mapping
        assert got.latency == want.latency
        assert got.failure_probability == want.failure_probability
        assert got.extras == want.extras
        assert got.solver == want.solver
    return got, got_events


def _all_replicas_latency(app, plat):
    everything = IntervalMapping.single_interval(
        app.num_stages, set(range(1, plat.size + 1))
    )
    return latency(everything, app, plat)


def _wide_platform(m=17, seed=0):
    """m = 17, as the ``wide-m17`` strategy below."""
    rng = random.Random(seed)
    return Platform.communication_homogeneous(
        [rng.uniform(1.0, 8.0) for _ in range(m)],
        bandwidth=rng.uniform(2.0, 8.0),
        failure_probabilities=[rng.uniform(0.05, 0.6) for _ in range(m)],
    )


PLATFORM_STRATEGIES = {
    "fully-homogeneous": fully_homogeneous_platforms(1, 6),
    "comm-homogeneous": comm_homogeneous_platforms(1, 6),
    "fully-heterogeneous": fully_heterogeneous_platforms(1, 5),
    # processor indices past the 8- and 16-slot set hash tables
    "wide-m17": comm_homogeneous_platforms(17, 17),
}


@st.composite
def _instances(draw, kind):
    app = draw(applications(max_stages=6))
    plat = draw(PLATFORM_STRATEGIES[kind])
    warm = draw(
        st.lists(interval_mappings(app.num_stages, plat.size), max_size=2)
    )
    return app, plat, warm


class TestAgainstReference:
    @pytest.mark.parametrize("kind", sorted(PLATFORM_STRATEGIES))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_min_fp(self, kind, data):
        app, plat, warm = data.draw(_instances(kind))
        factor = data.draw(st.floats(min_value=0.2, max_value=2.5))
        threshold = factor * _all_replicas_latency(app, plat)
        _assert_matches_reference("min-fp", app, plat, threshold)
        _assert_matches_reference(
            "min-fp", app, plat, threshold, warm_starts=warm
        )

    @pytest.mark.parametrize("kind", sorted(PLATFORM_STRATEGIES))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_min_latency(self, kind, data):
        app, plat, warm = data.draw(_instances(kind))
        bound = data.draw(st.floats(min_value=0.0, max_value=1.0))
        _assert_matches_reference("min-latency", app, plat, bound)
        _assert_matches_reference(
            "min-latency",
            app,
            plat,
            bound,
            warm_starts=[mapping_to_dict(m) for m in warm],
        )

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", range(3))
    def test_min_fp_identical(self, kind, seed):
        app, plat = make_instance(kind, n=6, m=5, seed=seed)
        threshold = 2.0 * _all_replicas_latency(app, plat)
        result, events = _assert_matches_reference("min-fp", app, plat, threshold)
        assert any(e["kind"] == "enroll" for e in events)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", range(3))
    def test_min_latency_identical(self, kind, seed):
        app, plat = make_instance(kind, n=6, m=5, seed=seed)
        for bound in (0.95, 0.5):
            _assert_matches_reference("min-latency", app, plat, bound)

    @pytest.mark.parametrize("query", sorted(QUERIES))
    def test_wide_platform_identical(self, query):
        plat = _wide_platform(seed=5)
        app, _ = make_instance("comm-homogeneous", n=8, m=4, seed=4)
        threshold = (
            2.0 * _all_replicas_latency(app, plat)
            if query == "min-fp"
            else 0.01
        )
        result, events = _assert_matches_reference(query, app, plat, threshold)
        assert result is not None
        assert max(max(a) for a in result.mapping.allocations) >= 9

    @pytest.mark.parametrize("query", sorted(QUERIES))
    def test_wide_pipeline_scenario(self, query):
        """The m = 17 wide-pipeline instance whose replica sets used to
        score FP by frozenset iteration order."""
        from repro.workloads.scenarios import make_scenario

        app, plat = make_scenario(
            "wide-pipeline", seed=0, params={"stages": 12, "num_processors": 17}
        )
        threshold = (
            1.5 * _all_replicas_latency(app, plat)
            if query == "min-fp"
            else 1e-4
        )
        warm = [IntervalMapping([(1, 4), (5, 12)], [(9, 4, 1), (2, 17)])]
        for opts in ({}, {"warm_starts": warm}):
            _assert_matches_reference(query, app, plat, threshold, **opts)

    @pytest.mark.parametrize("query", sorted(QUERIES))
    def test_incompatible_warm_start_rejected(self, query):
        """A warm start naming a processor the platform lacks is an
        error, as evaluating it with the plain metrics would be."""
        app, plat = make_instance("comm-homogeneous", n=4, m=3, seed=0)
        bogus = IntervalMapping([(1, 2), (3, 4)], [{1}, {7}])
        for fn in QUERIES[query]:
            with pytest.raises(InvalidMappingError, match="P7"):
                fn(app, plat, 0.5, warm_starts=[bogus])

    def test_infeasible_verdicts_match(self):
        app, plat = make_instance("comm-homogeneous", n=5, m=4, seed=0)
        for query, threshold in (("min-fp", 1e-9), ("min-latency", 0.0)):
            fn, reference = QUERIES[query]
            with pytest.raises(InfeasibleProblemError):
                reference(app, plat, threshold)
            with pytest.raises(InfeasibleProblemError):
                fn(app, plat, threshold)
            _assert_matches_reference(query, app, plat, threshold)


class TestRecordedRuns:
    """Through the registry front door: a ``record_run`` of the greedy
    solver diffs clean against the reference's recorded trajectory."""

    @pytest.mark.parametrize(
        ("solver", "query", "threshold"),
        [
            ("greedy-min-fp", "min-fp", None),
            ("greedy-min-latency", "min-latency", 0.5),
        ],
    )
    def test_recording_matches_reference(self, solver, query, threshold):
        app, plat = make_instance("comm-homogeneous", n=5, m=4, seed=2)
        if threshold is None:
            threshold = 2.0 * _all_replicas_latency(app, plat)
        result, recording = record_run(solver, app, plat, threshold)
        _, reference_events = _run(QUERIES[query][1], app, plat, threshold)
        report = diff_runs(reference_events, recording)
        assert report.ok, report.summary()
        assert report.events_compared > 0
        # one cache per solve, reported in the recording's diagnostics
        stats = [e for e in recording.events if e["kind"] == "cache_stats"]
        assert len(stats) == 1 and stats[0]["hits"] > 0

    def test_no_numpy_needed(self, monkeypatch):
        """Greedy never touches the bulk evaluator."""
        import repro.core.metrics_bulk as mb

        monkeypatch.setattr(mb, "HAS_NUMPY", False)
        monkeypatch.setattr(mb, "_np", None)
        app, plat = make_instance("fully-heterogeneous", n=5, m=4, seed=1)
        threshold = 2.0 * _all_replicas_latency(app, plat)
        _assert_matches_reference("min-fp", app, plat, threshold)
        _assert_matches_reference("min-latency", app, plat, 0.5)
