"""Local search against its whole-neighbourhood reference loop.

The local-search solvers walk a shuffled list of move indices over the
indexed neighbourhood, reject on the move's failure probability alone
what the lexicographic rank proves no better, and score the rest
through ``EvaluationCache.objectives_with``; the oracle in
:mod:`tests.algorithms.local_search_reference` shuffles the whole list
of neighbour mappings every step and ranks each one in full.  The two
must agree bit-for-bit: the same accepted states, the same result and
step count, and the same recorded restart/accept/descent events (ranks,
rng draw counts), feasible or not, with and without warm starts.
"""

import inspect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.heuristics import (
    local_search_minimize_fp,
    local_search_minimize_latency,
)
from repro.api import diff_runs, record_run
from repro.core import Platform
from repro.core.serialization import mapping_to_dict
from repro.exceptions import InfeasibleProblemError
from repro.workloads.scenarios import make_scenario

from tests.algorithms.local_search_reference import (
    reference_local_search_minimize_fp,
    reference_local_search_minimize_latency,
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
    "min-fp": (local_search_minimize_fp, reference_local_search_minimize_fp),
    "min-latency": (
        local_search_minimize_latency,
        reference_local_search_minimize_latency,
    ),
}


def _assert_matches_reference(query, app, plat, threshold, **opts):
    return assert_matches_reference(*QUERIES[query], app, plat, threshold, **opts)


@st.composite
def _budgets(draw):
    """Short descents, a few restarts (random starts draw from the rng)."""
    return {
        "restarts": draw(st.integers(min_value=1, max_value=5)),
        "max_steps": draw(st.integers(min_value=1, max_value=30)),
        "seed": draw(st.integers(min_value=0, max_value=2**16)),
    }


class TestAgainstReference:
    @pytest.mark.parametrize("kind", sorted(PLATFORM_STRATEGIES))
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_min_fp(self, kind, data):
        app, plat, warm = data.draw(instances(kind))
        # below ~0.5 most thresholds are infeasible: descents then rank
        # on latency excess all the way
        factor = data.draw(st.floats(min_value=0.2, max_value=2.5))
        threshold = factor * all_replicas_latency(app, plat)
        opts = data.draw(_budgets())
        _assert_matches_reference("min-fp", app, plat, threshold, **opts)
        _assert_matches_reference(
            "min-fp", app, plat, threshold, warm_starts=warm, **opts
        )

    @pytest.mark.parametrize("kind", sorted(PLATFORM_STRATEGIES))
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_min_latency(self, kind, data):
        app, plat, warm = data.draw(instances(kind))
        # FP bounds near 0 are infeasible: descents then rank on FP excess
        bound = data.draw(
            st.one_of(
                st.floats(min_value=0.0, max_value=1.0),
                st.floats(min_value=1e-12, max_value=1e-3),
            )
        )
        opts = data.draw(_budgets())
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
        "kind",
        [
            "fully-homogeneous",
            "comm-homogeneous",
            "fully-heterogeneous",
            "fully-homogeneous-failhet",
        ],
    )
    def test_default_budget(self, query, kind):
        """The solvers' own 8 restarts of up to 200 steps."""
        app, plat = make_instance(kind, n=6, m=5, seed=1)
        threshold = (
            1.2 * all_replicas_latency(app, plat) if query == "min-fp" else 0.2
        )
        result, trace, _ = _assert_matches_reference(
            query, app, plat, threshold, seed=3
        )
        assert result is not None and trace

    @pytest.mark.parametrize("query", sorted(QUERIES))
    @pytest.mark.parametrize("stages", [5, 8])
    def test_edge_hub_cloud(self, query, stages):
        """The service's instances: three tiers, heterogeneous links."""
        app, plat = make_scenario(
            "edge-hub-cloud", seed=stages, params={"stages": stages}
        )
        threshold = (
            0.8 * all_replicas_latency(app, plat) if query == "min-fp" else 0.05
        )
        result, trace, _ = _assert_matches_reference(
            query, app, plat, threshold, seed=1
        )
        assert result is not None and trace

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
            "min-fp", app, plat, threshold, seed=1, restarts=3, max_steps=40
        )
        assert trace and max(max(a) for a in result.mapping.allocations) >= 9

    @pytest.mark.parametrize("query", sorted(QUERIES))
    def test_single_stage_single_processor(self, query):
        """No move applies: every descent ends after one step."""
        app, plat = make_instance("comm-homogeneous", n=1, m=1, seed=0)
        threshold = 2.0 * all_replicas_latency(app, plat) if query == "min-fp" else 1.0
        result, trace, _ = _assert_matches_reference(query, app, plat, threshold)
        assert trace == [] and result.extras["steps"] == 8

    def test_infeasible_verdicts_match(self):
        app, plat = make_instance("comm-homogeneous", n=5, m=4, seed=0)
        for query, threshold in (("min-fp", 1e-9), ("min-latency", 0.0)):
            fn, _ = QUERIES[query]
            with pytest.raises(InfeasibleProblemError):
                fn(app, plat, threshold)
            result, trace, _ = _assert_matches_reference(query, app, plat, threshold)
            assert result is None and trace  # the walk still moved


class TestRecordedRuns:
    """Through the registry front door: a ``record_run`` of each query
    diffs clean against the reference's recorded walk."""

    @pytest.mark.parametrize(
        ("solver", "query", "threshold"),
        [
            ("local-search-min-fp", "min-fp", None),
            ("local-search-min-latency", "min-latency", 0.5),
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
        assert any(e["kind"] == "accept" for e in recording.events)
        stats = [e for e in recording.events if e["kind"] == "cache_stats"]
        assert len(stats) == 1 and stats[0]["hits"] > 0

    def test_no_numpy_needed(self, monkeypatch):
        """Local search never touches the bulk evaluator."""
        import repro.core.metrics_bulk as mb

        monkeypatch.setattr(mb, "HAS_NUMPY", False)
        monkeypatch.setattr(mb, "_np", None)
        app, plat = make_instance("fully-heterogeneous", n=5, m=4, seed=1)
        threshold = 2.0 * all_replicas_latency(app, plat)
        _assert_matches_reference("min-fp", app, plat, threshold, restarts=3)
        _assert_matches_reference("min-latency", app, plat, 0.5, restarts=3)

    @pytest.mark.parametrize("option", ["use_bulk", "bulk_backend"])
    def test_bulk_options_are_gone(self, option):
        for fn in (local_search_minimize_fp, local_search_minimize_latency):
            assert option not in inspect.signature(fn).parameters
            app, plat = make_instance("comm-homogeneous", n=3, m=2, seed=0)
            with pytest.raises(TypeError, match=option):
                fn(app, plat, 100.0, **{option: None})
