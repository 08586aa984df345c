"""Tests for the heuristics (single-interval grid, greedy, local search,
annealing) on the NP-hard / open problem classes."""

import pytest

from repro.algorithms.bicriteria import (
    exhaustive_minimize_fp,
    exhaustive_minimize_latency,
)
from repro.algorithms.heuristics import (
    AnnealingSchedule,
    anneal_minimize_fp,
    anneal_minimize_latency,
    balanced_partition,
    greedy_minimize_fp,
    greedy_minimize_latency,
    local_search_minimize_fp,
    local_search_minimize_latency,
    single_interval_candidates,
    single_interval_mappings,
    single_interval_minimize_fp,
    single_interval_minimize_latency,
    single_interval_replica_sets,
)
from repro.core import failure_probability, latency
from repro.exceptions import InfeasibleProblemError
from repro.workloads.reference import figure5_instance
from repro.workloads.synthetic import random_application

from tests.helpers import make_instance

MIN_FP_HEURISTICS = [
    single_interval_minimize_fp,
    greedy_minimize_fp,
    local_search_minimize_fp,
    anneal_minimize_fp,
]
MIN_LAT_HEURISTICS = [
    single_interval_minimize_latency,
    greedy_minimize_latency,
    local_search_minimize_latency,
    anneal_minimize_latency,
]


class TestSingleIntervalGrid:
    def test_candidates_are_single_interval(self, fig5):
        for cand in single_interval_candidates(
            fig5.application, fig5.platform
        ):
            assert cand.mapping.is_single_interval

    def test_exact_within_single_interval_on_comm_hom(self, fig5):
        """The grid must find the best single-interval FP under L=22: the
        paper's 0.64."""
        result = single_interval_minimize_fp(
            fig5.application, fig5.platform, fig5.latency_threshold
        )
        assert result.failure_probability == pytest.approx(0.64, abs=1e-12)
        assert result.extras["exact_within_single_interval"]

    @pytest.mark.parametrize("seed", range(4))
    def test_grid_beats_or_ties_all_single_interval_mappings(self, seed):
        """Exhaustive check of the exactness claim on random instances."""
        from itertools import combinations

        from repro.core import IntervalMapping

        app, plat = make_instance("comm-homogeneous", n=3, m=5, seed=seed)
        thresholds = [c.latency for c in single_interval_candidates(app, plat)]
        threshold = sorted(thresholds)[len(thresholds) // 2]
        result = single_interval_minimize_fp(app, plat, threshold)
        best_fp = 1.0
        for k in range(1, plat.size + 1):
            for procs in combinations(range(1, plat.size + 1), k):
                mapping = IntervalMapping.single_interval(3, procs)
                if latency(mapping, app, plat) <= threshold + 1e-9:
                    best_fp = min(
                        best_fp, failure_probability(mapping, plat)
                    )
        assert result.failure_probability == pytest.approx(best_fp, abs=1e-12)

    def test_infeasible(self, fig5):
        with pytest.raises(InfeasibleProblemError):
            single_interval_minimize_fp(fig5.application, fig5.platform, 0.01)
        with pytest.raises(InfeasibleProblemError):
            single_interval_minimize_latency(
                fig5.application, fig5.platform, 1e-9
            )

    def test_replica_set_pool_matches_candidates(self):
        app, plat = make_instance("comm-homogeneous", n=5, m=6, seed=0)
        candidates = single_interval_candidates(app, plat)
        grid = single_interval_replica_sets(plat)
        assert len(candidates) == len(grid)
        for cand, (procs, k, sigma) in zip(candidates, grid):
            assert cand.mapping.allocations[0] == procs
            assert cand.extras == {"k": k, "speed_floor": sigma}
        assert single_interval_mappings(app, plat) == [
            c.mapping for c in candidates
        ]

    @pytest.mark.parametrize("option", ["use_bulk", "bulk_backend"])
    def test_bulk_options_are_gone(self, option):
        app, plat = make_instance("comm-homogeneous", n=3, m=2, seed=0)
        for fn in (single_interval_minimize_fp, single_interval_minimize_latency):
            with pytest.raises(TypeError, match=option):
                fn(app, plat, 100.0, **{option: None})


class TestBalancedPartition:
    def test_covers_all_stages(self):
        app = random_application(7, seed=1)
        for p in range(1, 8):
            intervals = balanced_partition(app, p)
            assert intervals[0].start == 1
            assert intervals[-1].end == 7
            assert len(intervals) == p

    def test_p_larger_than_stages_clamps(self):
        app = random_application(2, seed=1)
        assert len(balanced_partition(app, 5)) == 2

    def test_balances_work(self):
        from repro.core import PipelineApplication

        app = PipelineApplication(
            works=(10, 10, 10, 10), volumes=(0,) * 5
        )
        halves = balanced_partition(app, 2)
        assert [iv.length for iv in halves] == [2, 2]


class TestHeuristicsOnFigure5:
    """The Figure 5 instance is the paper's hard case: heuristics must
    beat the single-interval baseline and ideally find the optimum."""

    def test_greedy_finds_two_interval_optimum(self, fig5):
        result = greedy_minimize_fp(
            fig5.application, fig5.platform, fig5.latency_threshold
        )
        assert result.failure_probability == pytest.approx(
            fig5.claimed_two_interval_fp, rel=1e-9
        )

    def test_local_search_finds_two_interval_optimum(self, fig5):
        result = local_search_minimize_fp(
            fig5.application, fig5.platform, fig5.latency_threshold, seed=0
        )
        assert result.failure_probability == pytest.approx(
            fig5.claimed_two_interval_fp, rel=1e-9
        )

    def test_annealing_finds_two_interval_optimum(self, fig5):
        result = anneal_minimize_fp(
            fig5.application, fig5.platform, fig5.latency_threshold, seed=1
        )
        assert result.failure_probability == pytest.approx(
            fig5.claimed_two_interval_fp, rel=1e-9
        )


class TestHeuristicsVsExhaustive:
    @pytest.mark.parametrize("solver", MIN_FP_HEURISTICS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_min_fp_feasible_and_bounded_by_optimum(self, solver, seed):
        app, plat = make_instance("comm-homogeneous", n=3, m=4, seed=seed)
        threshold = sorted(
            c.latency for c in single_interval_candidates(app, plat)
        )[3]
        exact = exhaustive_minimize_fp(app, plat, threshold)
        result = solver(app, plat, threshold)
        assert result.latency <= threshold + 1e-6
        assert (
            result.failure_probability
            >= exact.failure_probability - 1e-12
        )

    @pytest.mark.parametrize("solver", MIN_LAT_HEURISTICS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_min_latency_feasible_and_bounded_by_optimum(self, solver, seed):
        app, plat = make_instance("comm-homogeneous", n=3, m=4, seed=seed)
        fp_threshold = 0.3
        try:
            result = solver(app, plat, fp_threshold)
        except InfeasibleProblemError:
            with pytest.raises(InfeasibleProblemError):
                exhaustive_minimize_latency(app, plat, fp_threshold)
            return
        exact = exhaustive_minimize_latency(app, plat, fp_threshold)
        assert result.failure_probability <= fp_threshold + 1e-6
        assert result.latency >= exact.latency - 1e-9

    @pytest.mark.parametrize("solver", MIN_FP_HEURISTICS)
    def test_min_fp_works_on_fully_heterogeneous(self, solver):
        app, plat = make_instance("fully-heterogeneous", n=3, m=4, seed=7)
        threshold = 3 * latency(
            exhaustive_minimize_fp(app, plat, 1e9).mapping, app, plat
        )
        result = solver(app, plat, threshold)
        assert result.latency <= threshold + 1e-6


class TestAnnealingConfig:
    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            AnnealingSchedule(cooling=1.5)
        with pytest.raises(ValueError):
            AnnealingSchedule(initial_temperature=0)
        with pytest.raises(ValueError):
            AnnealingSchedule(steps=0)

    def test_annealing_deterministic_with_seed(self, fig5):
        a = anneal_minimize_fp(
            fig5.application, fig5.platform, 22.0, seed=123,
            schedule=AnnealingSchedule(steps=300),
        )
        b = anneal_minimize_fp(
            fig5.application, fig5.platform, 22.0, seed=123,
            schedule=AnnealingSchedule(steps=300),
        )
        assert a.failure_probability == b.failure_probability
        assert a.mapping == b.mapping
