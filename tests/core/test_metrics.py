"""Unit tests for the latency / failure-probability metrics.

The paper's worked examples are asserted digit-for-digit here; the
hypothesis-based invariants live in ``test_metrics_properties.py``.
"""

import math

import pytest

from repro.core import (
    GeneralMapping,
    IntervalMapping,
    PipelineApplication,
    Platform,
    evaluate,
    failure_probability,
    general_mapping_latency,
    interval_reliability,
    latency,
    latency_breakdown,
    latency_heterogeneous,
    latency_uniform,
)
from repro.exceptions import InvalidMappingError, InvalidPlatformError


class TestFailureProbability:
    def test_single_processor(self):
        plat = Platform.fully_homogeneous(1, failure_probability=0.3)
        mapping = IntervalMapping.single_interval(1, {1})
        assert failure_probability(mapping, plat) == pytest.approx(0.3)

    def test_replication_multiplies(self):
        plat = Platform.fully_homogeneous(3, failure_probability=0.5)
        mapping = IntervalMapping.single_interval(1, {1, 2, 3})
        assert failure_probability(mapping, plat) == pytest.approx(0.125)

    def test_intervals_compose(self):
        plat = Platform.fully_homogeneous(2, failure_probability=0.5)
        mapping = IntervalMapping([(1, 1), (2, 2)], [{1}, {2}])
        # 1 - (1-0.5)(1-0.5)
        assert failure_probability(mapping, plat) == pytest.approx(0.75)

    def test_paper_figure5_values(self, fig5):
        fp_single = failure_probability(fig5.best_single_interval, fig5.platform)
        assert fp_single == pytest.approx(0.64, abs=1e-12)
        fp_two = failure_probability(fig5.two_interval_mapping, fig5.platform)
        assert fp_two == pytest.approx(fig5.claimed_two_interval_fp, rel=1e-12)
        assert fp_two < fig5.claimed_two_interval_fp_bound

    def test_zero_fp_processor_makes_interval_safe(self):
        plat = Platform.fully_homogeneous(2, failure_probabilities=[0.0, 0.9])
        mapping = IntervalMapping([(1, 1), (2, 2)], [{1}, {2}])
        assert failure_probability(mapping, plat) == pytest.approx(0.9)

    def test_certain_failure(self):
        plat = Platform.fully_homogeneous(1, failure_probability=1.0)
        mapping = IntervalMapping.single_interval(1, {1})
        assert failure_probability(mapping, plat) == 1.0

    def test_numerical_stability_tiny_products(self):
        # exp(-12)*exp(-7) must equal exp(-19) to ~1e-15 relative, not 1e-8
        plat = Platform.fully_homogeneous(
            2, failure_probabilities=[math.exp(-12), math.exp(-7)]
        )
        mapping = IntervalMapping.single_interval(1, {1, 2})
        assert failure_probability(mapping, plat) == pytest.approx(
            math.exp(-19), rel=1e-12
        )

    def test_interval_reliability(self):
        plat = Platform.fully_homogeneous(2, failure_probabilities=[0.2, 0.5])
        assert interval_reliability(plat, {1, 2}) == pytest.approx(0.9)

    def test_validation_with_application(self):
        plat = Platform.fully_homogeneous(2)
        app = PipelineApplication(works=(1,), volumes=(1, 1))
        mapping = IntervalMapping([(1, 1), (2, 2)], [{1}, {2}])  # 2 stages
        with pytest.raises(InvalidMappingError):
            failure_probability(mapping, plat, app)


class TestFailureProductOrder:
    """Equal mappings score bit-identical FP however their sets were
    built.  For processor indices >= 9, frozenset iteration order
    depends on insertion order (9 shares a hash bucket with 1 in an
    8-slot table), so products taken in iteration order differed by an
    ulp and an EvaluationCache returned whichever value it saw first."""

    @pytest.fixture
    def wide(self):
        from repro.workloads.scenarios import make_scenario

        return make_scenario(
            "wide-pipeline",
            seed=0,
            params={"stages": 4, "num_processors": 17},
        )

    def test_insertion_order_does_not_change_fp(self, wide):
        from repro.core import EvaluationCache

        app, plat = wide
        forward = IntervalMapping([(1, 4)], [(1, 4, 9)])
        backward = IntervalMapping([(1, 4)], [(9, 4, 1)])
        assert forward == backward
        # the two sets really iterate differently
        assert list(forward.allocations[0]) != list(backward.allocations[0])
        fp = failure_probability(forward, plat)
        assert failure_probability(backward, plat) == fp
        assert interval_reliability(
            plat, forward.allocations[0]
        ) == interval_reliability(plat, backward.allocations[0])
        for first, second in ((forward, backward), (backward, forward)):
            cache = EvaluationCache(app, plat)
            assert cache.failure_probability(first) == fp
            assert cache.failure_probability(second) == fp

    def test_product_runs_in_ascending_processor_order(self, wide):
        _, plat = wide
        fps = plat.failure_probabilities
        expected = 1.0
        for u in (1, 4, 9):
            expected *= fps[u - 1]
        mapping = IntervalMapping([(1, 4)], [(9, 4, 1)])
        assert failure_probability(mapping, plat) == -math.expm1(
            math.log1p(-expected)
        )
        assert interval_reliability(plat, {9, 4, 1}) == 1.0 - expected


class TestLatencyUniform:
    def test_single_interval_single_processor(self):
        app = PipelineApplication(works=(4, 6), volumes=(8, 4, 2))
        plat = Platform.fully_homogeneous(1, speed=2.0, bandwidth=4.0)
        mapping = IntervalMapping.single_interval(2, {1})
        # 8/4 + 10/2 + 2/4 = 2 + 5 + 0.5
        assert latency_uniform(mapping, app, plat) == pytest.approx(7.5)

    def test_replication_serialises_input(self):
        app = PipelineApplication(works=(4,), volumes=(8, 2))
        plat = Platform.fully_homogeneous(3, speed=2.0, bandwidth=4.0)
        k2 = IntervalMapping.single_interval(1, {1, 2})
        k3 = IntervalMapping.single_interval(1, {1, 2, 3})
        assert latency_uniform(k2, app, plat) == pytest.approx(2 * 2 + 2 + 0.5)
        assert latency_uniform(k3, app, plat) == pytest.approx(3 * 2 + 2 + 0.5)

    def test_slowest_replica_bounds_compute(self):
        app = PipelineApplication(works=(6,), volumes=(0, 0))
        plat = Platform.communication_homogeneous([3.0, 1.0], bandwidth=1.0)
        mapping = IntervalMapping.single_interval(1, {1, 2})
        assert latency_uniform(mapping, app, plat) == pytest.approx(6.0)

    def test_multi_interval_sums(self, fig5):
        lat = latency_uniform(
            fig5.two_interval_mapping, fig5.application, fig5.platform
        )
        assert lat == pytest.approx(22.0, abs=1e-12)

    def test_one_port_ablation(self):
        app = PipelineApplication(works=(4,), volumes=(8, 2))
        plat = Platform.fully_homogeneous(3, speed=2.0, bandwidth=4.0)
        mapping = IntervalMapping.single_interval(1, {1, 2, 3})
        serialized = latency_uniform(mapping, app, plat, one_port=True)
        multiport = latency_uniform(mapping, app, plat, one_port=False)
        assert multiport == pytest.approx(2 + 2 + 0.5)
        assert serialized - multiport == pytest.approx(2 * 2)

    def test_rejects_heterogeneous_platform(self, fig34):
        with pytest.raises(InvalidPlatformError):
            latency_uniform(
                fig34.split_mapping, fig34.application, fig34.platform
            )


class TestLatencyHeterogeneous:
    def test_paper_figure34(self, fig34):
        app, plat = fig34.application, fig34.platform
        for mapping in fig34.single_processor_mappings:
            assert latency_heterogeneous(mapping, app, plat) == pytest.approx(
                105.0
            )
        assert latency_heterogeneous(
            fig34.split_mapping, app, plat
        ) == pytest.approx(7.0)

    def test_dispatch(self, fig34, fig5):
        assert latency(
            fig34.split_mapping, fig34.application, fig34.platform
        ) == pytest.approx(7.0)
        assert latency(
            fig5.two_interval_mapping, fig5.application, fig5.platform
        ) == pytest.approx(22.0)

    def test_equals_uniform_on_uniform_platform(self, fig5):
        eq1 = latency_uniform(
            fig5.two_interval_mapping, fig5.application, fig5.platform
        )
        eq2 = latency_heterogeneous(
            fig5.two_interval_mapping, fig5.application, fig5.platform
        )
        assert eq1 == pytest.approx(eq2, rel=1e-12)

    def test_replicated_heterogeneous_fanout(self):
        # 1 stage on {P1,P2}, different in-links: input term is the sum
        app = PipelineApplication(works=(2,), volumes=(6, 3))
        plat = Platform.fully_heterogeneous(
            speeds=[1.0, 2.0],
            in_bandwidths=[3.0, 6.0],
            out_bandwidths=[1.0, 3.0],
            link_bandwidths=[[1.0, 1.0], [1.0, 1.0]],
        )
        mapping = IntervalMapping.single_interval(1, {1, 2})
        # input: 6/3 + 6/6 = 3; interval: max(2/1 + 3/1, 2/2 + 3/3) = 5
        assert latency_heterogeneous(mapping, app, plat) == pytest.approx(8.0)

    def test_one_port_ablation_heterogeneous(self):
        app = PipelineApplication(works=(2,), volumes=(6, 3))
        plat = Platform.fully_heterogeneous(
            speeds=[1.0, 2.0],
            in_bandwidths=[3.0, 6.0],
            out_bandwidths=[1.0, 3.0],
            link_bandwidths=[[1.0, 1.0], [1.0, 1.0]],
        )
        mapping = IntervalMapping.single_interval(1, {1, 2})
        # input becomes max(2, 1) = 2 instead of 3
        assert latency_heterogeneous(
            mapping, app, plat, one_port=False
        ) == pytest.approx(7.0)


class TestGeneralMappingLatency:
    def test_matches_interval_for_compatible(self, fig34):
        gm = GeneralMapping([1, 2])
        assert general_mapping_latency(
            gm, fig34.application, fig34.platform
        ) == pytest.approx(7.0)

    def test_revisiting_processor_skips_comm(self):
        app = PipelineApplication(works=(1, 1, 1), volumes=(1, 1, 1, 1))
        plat = Platform.communication_homogeneous([1.0, 1.0], bandwidth=1.0)
        gm = GeneralMapping([1, 2, 1])
        # 1 (in) + 1 + 1 (hop) + 1 + 1 (hop) + 1 + 1 (out) = 7
        assert general_mapping_latency(gm, app, plat) == pytest.approx(7.0)
        gm_same = GeneralMapping([1, 1, 1])
        # no hops: 1 + 3 + 1
        assert general_mapping_latency(gm_same, app, plat) == pytest.approx(5.0)

    def test_latency_dispatches_general(self):
        app = PipelineApplication(works=(1,), volumes=(1, 1))
        plat = Platform.fully_homogeneous(1, speed=1.0, bandwidth=1.0)
        assert latency(GeneralMapping([1]), app, plat) == pytest.approx(3.0)


class TestBreakdownAndEvaluate:
    def test_uniform_breakdown_totals(self, fig5):
        bd = latency_breakdown(
            fig5.two_interval_mapping, fig5.application, fig5.platform
        )
        assert bd.total == pytest.approx(22.0)
        assert len(bd.intervals) == 2
        assert bd.intervals[0].replication == 1
        assert bd.intervals[1].replication == 10
        assert bd.intervals[1].input_time == pytest.approx(10.0)

    def test_heterogeneous_breakdown_totals(self, fig34):
        bd = latency_breakdown(
            fig34.split_mapping, fig34.application, fig34.platform
        )
        assert bd.total == pytest.approx(7.0)
        assert bd.final_output_time == 0.0
        assert bd.intervals[0].input_time == pytest.approx(1.0)

    def test_breakdown_matches_latency_ablation(self, fig5):
        bd = latency_breakdown(
            fig5.two_interval_mapping,
            fig5.application,
            fig5.platform,
            one_port=False,
        )
        direct = latency(
            fig5.two_interval_mapping,
            fig5.application,
            fig5.platform,
            one_port=False,
        )
        assert bd.total == pytest.approx(direct)

    def test_evaluate_bundles_both(self, fig5):
        ev = evaluate(
            fig5.two_interval_mapping, fig5.application, fig5.platform
        )
        assert ev.latency == pytest.approx(22.0)
        assert ev.failure_probability == pytest.approx(
            fig5.claimed_two_interval_fp
        )
        assert ev.mapping is fig5.two_interval_mapping

    def test_evaluation_dominance(self):
        from repro.core import MappingEvaluation

        a = MappingEvaluation(1.0, 0.5)
        b = MappingEvaluation(2.0, 0.5)
        c = MappingEvaluation(1.0, 0.5)
        assert a.dominates(b)
        assert not b.dominates(a)
        assert not a.dominates(c)  # equal: no strict improvement
