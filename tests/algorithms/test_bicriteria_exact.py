"""Tests for Algorithms 1-4 (Theorems 5-6) against the exhaustive baseline."""

import math

import pytest

from repro.algorithms.bicriteria import (
    algorithm1_minimize_fp,
    algorithm2_minimize_latency,
    algorithm3_minimize_fp,
    algorithm4_minimize_latency,
    closed_form_replication_bound,
    exhaustive_minimize_fp,
    exhaustive_minimize_latency,
    minimal_replication_for_fp,
)
from repro.core import IntervalMapping, Platform, latency
from repro.exceptions import InfeasibleProblemError, SolverError
from repro.workloads.synthetic import random_application

from tests.helpers import make_instance


def latency_thresholds(app, plat):
    """A spread of interesting latency thresholds for an instance."""
    single = latency(
        IntervalMapping.single_interval(app.num_stages, {plat.fastest().index}),
        app,
        plat,
    )
    full = latency(
        IntervalMapping.single_interval(
            app.num_stages, range(1, plat.size + 1)
        ),
        app,
        plat,
    )
    return [single, 0.5 * (single + full), full, 2 * full]


class TestAlgorithm1:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("kind", ["fully-homogeneous", "fully-homogeneous-failhet"])
    def test_matches_exhaustive(self, seed, kind):
        app, plat = make_instance(kind, n=3, m=4, seed=seed)
        for threshold in latency_thresholds(app, plat):
            result = algorithm1_minimize_fp(app, plat, threshold)
            exact = exhaustive_minimize_fp(app, plat, threshold)
            assert result.failure_probability == pytest.approx(
                exact.failure_probability, abs=1e-12
            ), threshold
            assert result.latency <= threshold + 1e-9

    def test_closed_form_agrees_with_scan(self):
        app = random_application(3, seed=11)
        plat = Platform.fully_homogeneous(
            5, speed=2.0, bandwidth=3.0, failure_probability=0.4
        )
        for threshold in latency_thresholds(app, plat):
            result = algorithm1_minimize_fp(app, plat, threshold)
            k_formula = closed_form_replication_bound(app, plat, threshold)
            assert result.extras["replication"] == k_formula

    @pytest.mark.parametrize(
        ("threshold", "k"), [(math.inf, 5), (-math.inf, 0)], ids=["inf", "-inf"]
    )
    def test_closed_form_at_infinite_thresholds(self, threshold, k):
        """Every processor fits under +inf, none under -inf (the floor
        of an infinite budget would overflow or be NaN)."""
        app = random_application(3, seed=11)
        plat = Platform.fully_homogeneous(
            5, speed=2.0, bandwidth=3.0, failure_probability=0.4
        )
        assert closed_form_replication_bound(app, plat, threshold) == k

    def test_uses_most_reliable(self):
        app = random_application(2, seed=3)
        plat = Platform.fully_homogeneous(
            4, speed=1.0, bandwidth=1.0,
            failure_probabilities=[0.9, 0.1, 0.5, 0.2],
        )
        # generous threshold: all 4 fit; tighter: the 2 most reliable
        tight = latency(
            IntervalMapping.single_interval(2, {1, 2}), app, plat
        )
        result = algorithm1_minimize_fp(app, plat, tight)
        assert result.mapping.used_processors == frozenset({2, 4})

    def test_infeasible_threshold(self, small_app, hom_platform):
        with pytest.raises(InfeasibleProblemError):
            algorithm1_minimize_fp(small_app, hom_platform, 0.01)

    def test_rejects_wrong_platform(self, small_app, comm_hom_platform):
        with pytest.raises(SolverError):
            algorithm1_minimize_fp(small_app, comm_hom_platform, 100.0)

    def test_zero_input_volume_unbounded_replication(self):
        from repro.core import PipelineApplication

        app = PipelineApplication(works=(2.0,), volumes=(0.0, 1.0))
        plat = Platform.fully_homogeneous(
            4, speed=1.0, bandwidth=1.0, failure_probability=0.5
        )
        # latency is independent of k; every processor should be enrolled
        result = algorithm1_minimize_fp(app, plat, 5.0)
        assert result.extras["replication"] == 4
        assert closed_form_replication_bound(app, plat, 5.0) == 4
        assert closed_form_replication_bound(app, plat, 1.0) == 0


class TestAlgorithm2:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize(
        "fp_threshold", [1.0, 0.5, 0.2, 0.05, 0.01]
    )
    def test_matches_exhaustive(self, seed, fp_threshold):
        app, plat = make_instance("fully-homogeneous", n=3, m=4, seed=seed)
        try:
            result = algorithm2_minimize_latency(app, plat, fp_threshold)
        except InfeasibleProblemError:
            with pytest.raises(InfeasibleProblemError):
                exhaustive_minimize_latency(app, plat, fp_threshold)
            return
        exact = exhaustive_minimize_latency(app, plat, fp_threshold)
        assert result.latency == pytest.approx(exact.latency, rel=1e-9)
        assert result.failure_probability <= fp_threshold + 1e-9

    def test_infeasible(self, small_app):
        plat = Platform.fully_homogeneous(2, failure_probability=0.9)
        with pytest.raises(InfeasibleProblemError):
            algorithm2_minimize_latency(small_app, plat, 0.5)

    def test_trivial_threshold_single_processor(self, small_app, hom_platform):
        result = algorithm2_minimize_latency(small_app, hom_platform, 1.0)
        assert result.extras["replication"] == 1


class TestAlgorithm3:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_exhaustive(self, seed):
        app, plat = make_instance(
            "comm-homogeneous-failhom", n=3, m=4, seed=seed
        )
        for threshold in latency_thresholds(app, plat):
            try:
                result = algorithm3_minimize_fp(app, plat, threshold)
            except InfeasibleProblemError:
                with pytest.raises(InfeasibleProblemError):
                    exhaustive_minimize_fp(app, plat, threshold)
                continue
            exact = exhaustive_minimize_fp(app, plat, threshold)
            assert result.failure_probability == pytest.approx(
                exact.failure_probability, abs=1e-12
            )

    def test_enrolls_fastest(self, small_app, comm_hom_platform):
        result = algorithm3_minimize_fp(small_app, comm_hom_platform, 12.0)
        # speeds are (3.0, 2.0, 1.0, 2.5): the 2 fastest are P1, P4
        assert result.mapping.used_processors == frozenset({1, 4})

    def test_rejects_failure_heterogeneous(self, small_app):
        plat = Platform.communication_homogeneous(
            [1.0, 2.0], failure_probabilities=[0.1, 0.2]
        )
        with pytest.raises(SolverError):
            algorithm3_minimize_fp(small_app, plat, 100.0)

    def test_rejects_fully_heterogeneous(self, small_app, het_platform):
        plat = het_platform.with_failure_probabilities(
            [0.3] * het_platform.size
        )
        with pytest.raises(SolverError):
            algorithm3_minimize_fp(small_app, plat, 100.0)


class TestAlgorithm4:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("fp_threshold", [1.0, 0.5, 0.1, 0.01])
    def test_matches_exhaustive(self, seed, fp_threshold):
        app, plat = make_instance(
            "comm-homogeneous-failhom", n=3, m=4, seed=seed
        )
        try:
            result = algorithm4_minimize_latency(app, plat, fp_threshold)
        except InfeasibleProblemError:
            with pytest.raises(InfeasibleProblemError):
                exhaustive_minimize_latency(app, plat, fp_threshold)
            return
        exact = exhaustive_minimize_latency(app, plat, fp_threshold)
        assert result.latency == pytest.approx(exact.latency, rel=1e-9)

    def test_minimal_replication_closed_form(self):
        plat = Platform.communication_homogeneous(
            [1.0, 1.0, 1.0], failure_probabilities=[0.5] * 3
        )
        assert minimal_replication_for_fp(plat, 0.6) == 1
        assert minimal_replication_for_fp(plat, 0.5) == 1
        assert minimal_replication_for_fp(plat, 0.25) == 2
        assert minimal_replication_for_fp(plat, 0.125) == 3
        with pytest.raises(InfeasibleProblemError):
            minimal_replication_for_fp(plat, 0.1)

    def test_perfectly_reliable_processor(self, small_app):
        plat = Platform.communication_homogeneous(
            [2.0, 1.0], failure_probabilities=[0.0, 0.0]
        )
        result = algorithm4_minimize_latency(small_app, plat, 0.0)
        assert result.extras["replication"] == 1
        assert result.mapping.used_processors == frozenset({1})
