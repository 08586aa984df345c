"""The vectorized exhaustive path must match the scalar path exactly.

The bulk solvers select on vectorized objectives but re-evaluate the
winners through the scalar metrics, so mapping, latency and FP of every
result — threshold queries, one-pass sweeps and Pareto fronts — must be
*equal* (not just close) to the scalar solvers' on these instances.
"""

import pytest

from repro.algorithms.bicriteria import (
    branch_and_bound_minimize_fp,
    branch_and_bound_minimize_latency,
    exhaustive_minimize_fp,
    exhaustive_minimize_latency,
    exhaustive_pareto_front,
    exhaustive_sweep_min_fp,
)
from repro.analysis.frontier import latency_grid, sweep_frontier
from repro.core import IntervalMapping, latency
from repro.exceptions import InfeasibleProblemError, SolverError

from tests.helpers import make_instance

pytest.importorskip("numpy", exc_type=ImportError)

KINDS = ["comm-homogeneous", "fully-heterogeneous"]


def _mid_threshold(app, plat):
    return 1.5 * latency(
        IntervalMapping.single_interval(
            app.num_stages, {plat.fastest().index}
        ),
        app,
        plat,
    )


def assert_same_result(a, b):
    assert a.mapping == b.mapping
    assert a.latency == b.latency
    assert a.failure_probability == b.failure_probability
    assert a.optimal == b.optimal
    assert a.extras["explored"] == b.extras["explored"]


class TestThresholdSolvers:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", range(4))
    def test_minimize_fp_bulk_equals_scalar(self, kind, seed):
        app, plat = make_instance(kind, n=5, m=4, seed=seed)
        threshold = _mid_threshold(app, plat)
        bulk = exhaustive_minimize_fp(app, plat, threshold, use_bulk=True)
        scalar = exhaustive_minimize_fp(
            app, plat, threshold, use_bulk=False
        )
        assert_same_result(bulk, scalar)
        assert bulk.extras["bulk"] is True

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", range(4))
    def test_minimize_latency_bulk_equals_scalar(self, kind, seed):
        app, plat = make_instance(kind, n=5, m=4, seed=seed)
        bulk = exhaustive_minimize_latency(app, plat, 0.5, use_bulk=True)
        scalar = exhaustive_minimize_latency(
            app, plat, 0.5, use_bulk=False
        )
        assert_same_result(bulk, scalar)

    def test_infeasible_raised_on_both_paths(self):
        app, plat = make_instance("comm-homogeneous", n=4, m=3, seed=0)
        for use_bulk in (True, False):
            with pytest.raises(InfeasibleProblemError):
                exhaustive_minimize_fp(
                    app, plat, 1e-12, use_bulk=use_bulk
                )

    def test_search_cap_enforced_on_bulk_path(self):
        app, plat = make_instance("comm-homogeneous", n=6, m=4, seed=0)
        with pytest.raises(SolverError, match="cap"):
            exhaustive_minimize_fp(
                app, plat, 100.0, use_bulk=True, search_cap=10
            )


class TestUseBulkKnob:
    """The three-state ``use_bulk`` knob, now only on the exhaustive
    solvers."""

    def test_true_without_numpy_raises(self, monkeypatch):
        import repro.core.metrics_bulk as mb

        monkeypatch.setattr(mb, "HAS_NUMPY", False)
        app, plat = make_instance("comm-homogeneous", n=4, m=3, seed=0)
        for fn, threshold in (
            (exhaustive_minimize_fp, _mid_threshold(app, plat)),
            (exhaustive_minimize_latency, 0.5),
        ):
            with pytest.raises(SolverError, match="requires numpy"):
                fn(app, plat, threshold, use_bulk=True)

    def test_auto_resolves_off_without_numpy(self, monkeypatch):
        import repro.core.metrics_bulk as mb

        monkeypatch.setattr(mb, "HAS_NUMPY", False)
        app, plat = make_instance("comm-homogeneous", n=4, m=3, seed=0)
        threshold = _mid_threshold(app, plat)
        # use_bulk=None silently takes the scalar path
        auto = exhaustive_minimize_fp(app, plat, threshold, use_bulk=None)
        assert "bulk" not in auto.extras
        assert_same_result(
            auto, exhaustive_minimize_fp(app, plat, threshold, use_bulk=False)
        )


class TestParetoFront:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", range(3))
    def test_front_bulk_equals_scalar(self, kind, seed):
        app, plat = make_instance(kind, n=5, m=4, seed=seed)
        bulk = exhaustive_pareto_front(app, plat, use_bulk=True)
        scalar = exhaustive_pareto_front(app, plat, use_bulk=False)
        assert [
            (p.latency, p.failure_probability, p.payload) for p in bulk
        ] == [
            (p.latency, p.failure_probability, p.payload) for p in scalar
        ]

    def test_front_reference_instances(self, fig34, fig5):
        for inst in (fig34, fig5):
            app, plat = inst.application, inst.platform
            bulk = exhaustive_pareto_front(app, plat, use_bulk=True)
            scalar = exhaustive_pareto_front(app, plat, use_bulk=False)
            assert [
                (p.latency, p.failure_probability) for p in bulk
            ] == [(p.latency, p.failure_probability) for p in scalar]

    def test_small_block_size_changes_nothing(self):
        app, plat = make_instance("comm-homogeneous", n=5, m=4, seed=9)
        tiny = exhaustive_pareto_front(app, plat, use_bulk=True, block_size=7)
        big = exhaustive_pareto_front(
            app, plat, use_bulk=True, block_size=100_000
        )
        assert [(p.latency, p.failure_probability) for p in tiny] == [
            (p.latency, p.failure_probability) for p in big
        ]


class TestOnePassSweep:
    @pytest.mark.parametrize("kind", KINDS)
    def test_sweep_equals_per_threshold_scalar(self, kind):
        app, plat = make_instance(kind, n=5, m=4, seed=2)
        top = _mid_threshold(app, plat)
        thresholds = [1e-9, 0.25 * top, 0.5 * top, top]
        swept = exhaustive_sweep_min_fp(app, plat, thresholds)
        assert len(swept) == len(thresholds)
        for threshold, result in zip(thresholds, swept):
            try:
                reference = exhaustive_minimize_fp(
                    app, plat, threshold, use_bulk=False
                )
            except InfeasibleProblemError:
                assert result is None
                continue
            assert result is not None
            assert_same_result(result, reference)

    def test_empty_threshold_list(self):
        app, plat = make_instance("comm-homogeneous", n=3, m=3, seed=0)
        assert exhaustive_sweep_min_fp(app, plat, []) == []

    def test_scalar_fallback_matches_bulk(self):
        app, plat = make_instance("comm-homogeneous", n=4, m=3, seed=5)
        thresholds = latency_grid(app, plat, num_points=5)
        bulk = exhaustive_sweep_min_fp(
            app, plat, thresholds, use_bulk=True
        )
        scalar = exhaustive_sweep_min_fp(
            app, plat, thresholds, use_bulk=False
        )
        assert len(bulk) == len(scalar)
        for b, s in zip(bulk, scalar):
            if s is None:
                assert b is None
            else:
                assert b.mapping == s.mapping
                assert b.latency == s.latency
                assert b.failure_probability == s.failure_probability


class TestFrontierFastPath:
    def test_sweep_frontier_fast_path_matches_engine_path(self):
        app, plat = make_instance("comm-homogeneous", n=4, m=4, seed=3)
        thresholds = latency_grid(app, plat, num_points=6)
        # name + no store/workers triggers the one-pass fast path;
        # workers=1 with an explicit store goes through the engine
        fast = sweep_frontier(
            app, plat, "exhaustive-min-fp", thresholds=thresholds
        )
        from repro.engine import MemoryStore

        engine = sweep_frontier(
            app,
            plat,
            "exhaustive-min-fp",
            thresholds=thresholds,
            store=MemoryStore(),
        )
        assert [(p.latency, p.failure_probability) for p in fast] == [
            (p.latency, p.failure_probability) for p in engine
        ]

    def test_callable_triggers_fast_path_too(self):
        app, plat = make_instance("comm-homogeneous", n=4, m=4, seed=4)
        thresholds = latency_grid(app, plat, num_points=5)
        via_callable = sweep_frontier(
            app, plat, exhaustive_minimize_fp, thresholds=thresholds
        )
        serial = sweep_frontier(
            app,
            plat,
            lambda a, p, t: exhaustive_minimize_fp(a, p, t),
            thresholds=thresholds,
        )
        assert [
            (p.latency, p.failure_probability) for p in via_callable
        ] == [(p.latency, p.failure_probability) for p in serial]


class TestBranchAndBoundTables:
    """The numpy bounding tables must not change the search at all."""

    @pytest.mark.parametrize("seed", range(4))
    def test_min_fp_bit_identical(self, seed):
        app, plat = make_instance("comm-homogeneous", n=5, m=6, seed=seed)
        threshold = _mid_threshold(app, plat)
        fast = branch_and_bound_minimize_fp(app, plat, threshold)
        slow = branch_and_bound_minimize_fp(
            app, plat, threshold, use_tables=False
        )
        assert_same_result(fast, slow)

    @pytest.mark.parametrize("seed", range(4))
    def test_min_latency_bit_identical(self, seed):
        app, plat = make_instance("comm-homogeneous", n=5, m=6, seed=seed)
        fast = branch_and_bound_minimize_latency(app, plat, 0.4)
        slow = branch_and_bound_minimize_latency(
            app, plat, 0.4, use_tables=False
        )
        assert_same_result(fast, slow)

    def test_figure5_bit_identical(self, fig5):
        fast = branch_and_bound_minimize_fp(
            fig5.application, fig5.platform, fig5.latency_threshold
        )
        slow = branch_and_bound_minimize_fp(
            fig5.application,
            fig5.platform,
            fig5.latency_threshold,
            use_tables=False,
        )
        assert_same_result(fast, slow)
