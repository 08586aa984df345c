"""Simulated annealing against its whole-neighbourhood reference loop.

The annealing solvers draw each proposal by index from the indexed
neighbourhood, score it through ``EvaluationCache.objectives_with`` and
memoise repeat draws per state; the oracle in
:mod:`tests.algorithms.anneal_reference` rebuilds the whole
neighbourhood as mapping objects every step and evaluates the drawn one
in full.  The two must agree bit-for-bit: the same accepted states, the
same result, and the same recorded proposal events (energies, acceptance
decisions, rng draw counts), on short (hot) and 8000-step (frozen)
schedules.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.heuristics import (
    AnnealingSchedule,
    anneal_minimize_fp,
    anneal_minimize_latency,
)
from repro.api import diff_runs, record_run
from repro.core import IntervalMapping, Platform
from repro.core.serialization import mapping_to_dict
from repro.exceptions import InfeasibleProblemError

from tests.algorithms.anneal_reference import (
    reference_anneal_minimize_fp,
    reference_anneal_minimize_latency,
)
from tests.algorithms.oracle import (
    PLATFORM_STRATEGIES,
    all_replicas_latency,
    assert_matches_reference,
    instances,
    run,
)
from tests.helpers import make_instance

QUERIES = {
    "min-fp": (anneal_minimize_fp, reference_anneal_minimize_fp),
    "min-latency": (anneal_minimize_latency, reference_anneal_minimize_latency),
}


def _assert_matches_reference(query, app, plat, threshold, **opts):
    return assert_matches_reference(*QUERIES[query], app, plat, threshold, **opts)


@st.composite
def _schedules(draw, scale=1.0):
    """Short schedules from hot to nearly frozen (memo repeat draws)."""
    return AnnealingSchedule(
        initial_temperature=scale
        * draw(st.sampled_from([0.5, 0.05, 1e-3, 1e-6])),
        cooling=draw(st.sampled_from([0.9, 0.995])),
        steps=draw(st.integers(min_value=1, max_value=120)),
    )


class TestAgainstReference:
    @pytest.mark.parametrize("kind", sorted(PLATFORM_STRATEGIES))
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_min_fp(self, kind, data):
        app, plat, warm = data.draw(instances(kind))
        factor = data.draw(st.floats(min_value=0.2, max_value=2.5))
        threshold = factor * all_replicas_latency(app, plat)
        opts = {
            "schedule": data.draw(_schedules()),
            "seed": data.draw(st.integers(min_value=0, max_value=2**16)),
        }
        _assert_matches_reference("min-fp", app, plat, threshold, **opts)
        _assert_matches_reference(
            "min-fp", app, plat, threshold, warm_starts=warm, **opts
        )

    @pytest.mark.parametrize("kind", sorted(PLATFORM_STRATEGIES))
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_min_latency(self, kind, data):
        app, plat, warm = data.draw(instances(kind))
        bound = data.draw(st.floats(min_value=0.0, max_value=1.0))
        # energies are in latency units here: scale the temperature
        scale = max(all_replicas_latency(app, plat), 1.0)
        opts = {
            "schedule": data.draw(_schedules(scale)),
            "seed": data.draw(st.integers(min_value=0, max_value=2**16)),
        }
        _assert_matches_reference("min-latency", app, plat, bound, **opts)
        _assert_matches_reference(
            "min-latency",
            app,
            plat,
            bound,
            warm_starts=[mapping_to_dict(m) for m in warm],
            **opts,
        )

    @pytest.mark.parametrize("query", sorted(QUERIES))
    @pytest.mark.parametrize(
        "kind", ["comm-homogeneous", "fully-heterogeneous", "fully-homogeneous-failhet"]
    )
    def test_default_schedule(self, query, kind):
        """The solvers' own 2000-step defaults."""
        app, plat = make_instance(kind, n=5, m=4, seed=1)
        threshold = (
            2.0 * all_replicas_latency(app, plat) if query == "min-fp" else 0.9
        )
        result, trace, _ = _assert_matches_reference(query, app, plat, threshold, seed=3)
        assert result is not None and trace

    @pytest.mark.parametrize(
        ("query", "kind"),
        [
            ("min-fp", "comm-homogeneous"),
            ("min-fp", "fully-heterogeneous"),
            ("min-latency", "comm-homogeneous"),
        ],
    )
    def test_8000_step_schedule(self, query, kind):
        """A deep schedule: the frozen phase re-draws memoised moves."""
        app, plat = make_instance(kind, n=6, m=4, seed=2)
        base = all_replicas_latency(app, plat)
        threshold = 2.0 * base if query == "min-fp" else 0.9
        scale = 1.0 if query == "min-fp" else base
        schedule = AnnealingSchedule(
            initial_temperature=0.5 * scale, cooling=0.999, steps=8000
        )
        warm = [IntervalMapping([(1, 3), (4, 6)], [{1}, {2, 3}])]
        _, trace, events = _assert_matches_reference(
            query, app, plat, threshold, schedule=schedule, seed=5, warm_starts=warm
        )
        proposals = [e for e in events if e["kind"] == "propose"]
        assert len(proposals) == 8000
        # long runs of rejections: the memo answered repeat draws
        assert sum(not e["accepted"] for e in proposals[-2000:]) > 1000

    def test_wide_platform(self):
        rng = random.Random(5)
        plat = Platform.communication_homogeneous(
            [rng.uniform(1.0, 8.0) for _ in range(17)],
            bandwidth=rng.uniform(2.0, 8.0),
            failure_probabilities=[rng.uniform(0.05, 0.6) for _ in range(17)],
        )
        app, _ = make_instance("comm-homogeneous", n=8, m=4, seed=4)
        threshold = 2.0 * all_replicas_latency(app, plat)
        result, trace, _ = _assert_matches_reference(
            "min-fp", app, plat, threshold, seed=1,
            schedule=AnnealingSchedule(steps=400),
        )
        assert trace and max(max(a) for a in result.mapping.allocations) >= 9

    @pytest.mark.parametrize("query", sorted(QUERIES))
    def test_single_stage_single_processor(self, query):
        """No move applies: every step proposes the current state, which
        is accepted without an acceptance draw."""
        app, plat = make_instance("comm-homogeneous", n=1, m=1, seed=0)
        threshold = 2.0 * all_replicas_latency(app, plat) if query == "min-fp" else 1.0
        result, trace, events = _assert_matches_reference(
            query, app, plat, threshold, schedule=AnnealingSchedule(steps=5)
        )
        assert trace == [result.mapping] * 5
        proposals = [e for e in events if e["kind"] == "propose"]
        assert [e["accepted"] for e in proposals] == [True] * 5
        assert len({e["rng_draws"] for e in proposals}) == 1

    def test_infeasible_verdicts_match(self):
        app, plat = make_instance("comm-homogeneous", n=5, m=4, seed=0)
        schedule = AnnealingSchedule(steps=200)
        for query, threshold in (("min-fp", 1e-9), ("min-latency", 0.0)):
            fn, reference = QUERIES[query]
            with pytest.raises(InfeasibleProblemError):
                fn(app, plat, threshold, schedule=schedule)
            _assert_matches_reference(query, app, plat, threshold, schedule=schedule)


class TestRecordedRuns:
    """Through the registry front door: a ``record_run`` of each query
    diffs clean against the reference's recorded walk."""

    @pytest.mark.parametrize(
        ("solver", "query", "threshold"),
        [
            ("anneal-min-fp", "min-fp", None),
            ("anneal-min-latency", "min-latency", 0.5),
        ],
    )
    def test_recording_matches_reference(self, solver, query, threshold):
        app, plat = make_instance("comm-homogeneous", n=5, m=4, seed=2)
        if threshold is None:
            threshold = 2.0 * all_replicas_latency(app, plat)
        result, recording = record_run(solver, app, plat, threshold, seed=11)
        _, _, reference_events = run(
            QUERIES[query][1], app, plat, threshold, seed=11
        )
        report = diff_runs(reference_events, recording)
        assert report.ok, report.summary()
        assert report.events_compared > 2000  # every proposal compared
        stats = [e for e in recording.events if e["kind"] == "cache_stats"]
        assert len(stats) == 1 and stats[0]["hits"] > 0

    def test_no_numpy_needed(self, monkeypatch):
        """Annealing never touches the bulk evaluator."""
        import repro.core.metrics_bulk as mb

        monkeypatch.setattr(mb, "HAS_NUMPY", False)
        monkeypatch.setattr(mb, "_np", None)
        app, plat = make_instance("fully-heterogeneous", n=5, m=4, seed=1)
        threshold = 2.0 * all_replicas_latency(app, plat)
        schedule = AnnealingSchedule(steps=300)
        _assert_matches_reference("min-fp", app, plat, threshold, schedule=schedule)
        _assert_matches_reference("min-latency", app, plat, 0.5, schedule=schedule)

    @pytest.mark.parametrize("option", ["use_bulk", "bulk_backend"])
    def test_bulk_options_are_gone(self, option):
        import inspect

        for fn in (anneal_minimize_fp, anneal_minimize_latency):
            assert option not in inspect.signature(fn).parameters
