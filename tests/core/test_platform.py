"""Unit tests for processors, topologies and platform classification."""

import pickle

import pytest

from repro.core import (
    IN,
    OUT,
    FailureClass,
    HeterogeneousTopology,
    Platform,
    PlatformClass,
    Processor,
    UniformTopology,
)
from repro.exceptions import InvalidPlatformError


class TestProcessor:
    def test_fields_and_helpers(self):
        p = Processor(index=3, speed=2.0, failure_probability=0.25)
        assert p.reliability == 0.75
        assert p.label == "P3"
        assert p.execution_time(6.0) == 3.0

    def test_named_label(self):
        p = Processor(index=1, speed=1.0, failure_probability=0.0, name="head")
        assert p.label == "head"

    def test_rejects_bad_speed(self):
        with pytest.raises(InvalidPlatformError):
            Processor(index=1, speed=0.0, failure_probability=0.1)
        with pytest.raises(InvalidPlatformError):
            Processor(index=1, speed=float("inf"), failure_probability=0.1)

    def test_rejects_bad_fp(self):
        with pytest.raises(InvalidPlatformError):
            Processor(index=1, speed=1.0, failure_probability=-0.1)
        with pytest.raises(InvalidPlatformError):
            Processor(index=1, speed=1.0, failure_probability=1.5)

    def test_rejects_bad_index(self):
        with pytest.raises(InvalidPlatformError):
            Processor(index=0, speed=1.0, failure_probability=0.1)

    def test_execution_time_rejects_negative_work(self):
        p = Processor(index=1, speed=1.0, failure_probability=0.0)
        with pytest.raises(ValueError):
            p.execution_time(-1.0)

    def test_ordering_by_index(self):
        a = Processor(index=1, speed=9.0, failure_probability=0.0)
        b = Processor(index=2, speed=1.0, failure_probability=0.0)
        assert sorted([b, a]) == [a, b]


class TestUniformTopology:
    def test_bandwidth_everywhere(self):
        topo = UniformTopology(3, 4.0)
        assert topo.bandwidth(IN, 1) == 4.0
        assert topo.bandwidth(2, 3) == 4.0
        assert topo.bandwidth(3, OUT) == 4.0
        assert topo.is_uniform

    def test_transfer_time(self):
        topo = UniformTopology(2, 4.0)
        assert topo.transfer_time(8.0, IN, 1) == 2.0
        assert topo.transfer_time(0.0, 1, 2) == 0.0
        assert topo.transfer_time(5.0, 1, 1) == 0.0  # intra-processor

    def test_transfer_rejects_negative_size(self):
        topo = UniformTopology(2, 1.0)
        with pytest.raises(ValueError):
            topo.transfer_time(-1.0, 1, 2)

    def test_rejects_self_link_query(self):
        topo = UniformTopology(2, 1.0)
        with pytest.raises(InvalidPlatformError):
            topo.bandwidth(1, 1)

    def test_rejects_out_of_range(self):
        topo = UniformTopology(2, 1.0)
        with pytest.raises(InvalidPlatformError):
            topo.bandwidth(IN, 3)

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(InvalidPlatformError):
            UniformTopology(2, 0.0)


class TestHeterogeneousTopology:
    def make(self):
        return HeterogeneousTopology(
            in_bandwidths=[100.0, 1.0],
            out_bandwidths=[1.0, 100.0],
            link_bandwidths=[[1.0, 100.0], [100.0, 1.0]],
        )

    def test_bandwidths(self):
        topo = self.make()
        assert topo.bandwidth(IN, 1) == 100.0
        assert topo.bandwidth(IN, 2) == 1.0
        assert topo.bandwidth(1, OUT) == 1.0
        assert topo.bandwidth(2, OUT) == 100.0
        assert topo.bandwidth(1, 2) == 100.0
        assert topo.bandwidth(2, 1) == 100.0
        assert not topo.is_uniform

    def test_diagonal_ignored(self):
        # diagonal entries are replaced by +inf internally and never used
        topo = self.make()
        with pytest.raises(InvalidPlatformError):
            topo.bandwidth(1, 1)

    def test_rejects_asymmetric_links(self):
        with pytest.raises(InvalidPlatformError):
            HeterogeneousTopology(
                in_bandwidths=[1.0, 1.0],
                out_bandwidths=[1.0, 1.0],
                link_bandwidths=[[1.0, 2.0], [3.0, 1.0]],
            )

    def test_rejects_non_square(self):
        with pytest.raises(InvalidPlatformError):
            HeterogeneousTopology([1.0], [1.0], [[1.0, 2.0]])

    def test_rejects_size_mismatch(self):
        with pytest.raises(InvalidPlatformError):
            HeterogeneousTopology([1.0, 1.0], [1.0], [[1.0, 1.0], [1.0, 1.0]])

    def test_uniform_detection(self):
        topo = HeterogeneousTopology(
            in_bandwidths=[2.0, 2.0],
            out_bandwidths=[2.0, 2.0],
            link_bandwidths=[[9.0, 2.0], [2.0, 9.0]],
        )
        assert topo.is_uniform

    @pytest.mark.parametrize("odd_one_out", ["in", "out", "link"])
    def test_any_differing_bandwidth_breaks_uniformity(self, odd_one_out):
        m = 3
        bin_ = [2.0] * m
        bout = [2.0] * m
        links = [[2.0] * m for _ in range(m)]
        if odd_one_out == "in":
            bin_[2] = 3.0
        elif odd_one_out == "out":
            bout[0] = 3.0
        else:
            links[0][2] = links[2][0] = 3.0
        topo = HeterogeneousTopology(bin_, bout, links)
        assert not topo.is_uniform
        # decided once at construction and carried through pickling
        # (pool workers receive pickled platforms)
        assert not pickle.loads(pickle.dumps(topo)).is_uniform

    def test_in_out_link_does_not_affect_uniformity(self):
        # P_in -> P_out never appears in a latency formula
        topo = HeterogeneousTopology(
            [2.0, 2.0], [2.0, 2.0], [[1.0, 2.0], [2.0, 1.0]],
            in_out_bandwidth=7.0,
        )
        assert topo.is_uniform

    def test_in_out_link_defaults_to_max(self):
        topo = self.make()
        assert topo.bandwidth(IN, OUT) == 100.0

    def test_equality_and_hash(self):
        assert self.make() == self.make()
        assert hash(self.make()) == hash(self.make())


class TestPlatformClassification:
    def test_fully_homogeneous(self):
        plat = Platform.fully_homogeneous(3, speed=2.0, bandwidth=1.0)
        assert plat.platform_class is PlatformClass.FULLY_HOMOGENEOUS
        assert plat.is_fully_homogeneous
        assert plat.is_communication_homogeneous  # inclusive
        assert not plat.is_fully_heterogeneous
        assert plat.failure_class is FailureClass.HOMOGENEOUS

    def test_comm_homogeneous(self):
        plat = Platform.communication_homogeneous([1.0, 2.0], bandwidth=1.0)
        assert plat.platform_class is PlatformClass.COMMUNICATION_HOMOGENEOUS
        assert plat.is_communication_homogeneous
        assert not plat.is_fully_homogeneous

    def test_fully_heterogeneous(self, het_platform):
        assert het_platform.platform_class is PlatformClass.FULLY_HETEROGENEOUS
        assert het_platform.is_fully_heterogeneous
        assert not het_platform.is_communication_homogeneous

    def test_failure_heterogeneous(self):
        plat = Platform.fully_homogeneous(
            2, failure_probabilities=[0.1, 0.2]
        )
        assert plat.failure_class is FailureClass.HETEROGENEOUS
        assert not plat.is_failure_homogeneous


class TestPlatformAccessors:
    def test_speed_and_fp(self):
        plat = Platform.communication_homogeneous(
            [3.0, 1.0], failure_probabilities=[0.1, 0.2]
        )
        assert plat.speed(1) == 3.0
        assert plat.failure_probability(2) == 0.2
        assert plat.speeds == (3.0, 1.0)
        assert plat.failure_probabilities == (0.1, 0.2)

    def test_processor_index_bounds(self):
        plat = Platform.fully_homogeneous(2)
        with pytest.raises(IndexError):
            plat.processor(0)
        with pytest.raises(IndexError):
            plat.processor(3)

    def test_uniform_bandwidth(self):
        plat = Platform.fully_homogeneous(2, bandwidth=7.0)
        assert plat.uniform_bandwidth == 7.0

    def test_uniform_bandwidth_rejects_heterogeneous(self, het_platform):
        with pytest.raises(InvalidPlatformError):
            het_platform.uniform_bandwidth

    def test_orderings(self):
        plat = Platform.communication_homogeneous(
            [1.0, 3.0, 2.0], failure_probabilities=[0.5, 0.2, 0.9]
        )
        assert [p.index for p in plat.by_speed_descending()] == [2, 3, 1]
        assert [p.index for p in plat.by_reliability_descending()] == [2, 1, 3]
        assert plat.fastest().index == 2
        assert plat.kth_fastest_speed(1) == 3.0
        assert plat.kth_fastest_speed(3) == 1.0

    def test_kth_fastest_bounds(self):
        plat = Platform.fully_homogeneous(2)
        with pytest.raises(IndexError):
            plat.kth_fastest_speed(0)
        with pytest.raises(IndexError):
            plat.kth_fastest_speed(3)

    def test_speed_ordering_tie_break_by_index(self):
        plat = Platform.communication_homogeneous([2.0, 2.0, 1.0])
        assert [p.index for p in plat.by_speed_descending()] == [1, 2, 3]

    def test_with_failure_probabilities(self):
        plat = Platform.fully_homogeneous(2, failure_probability=0.5)
        new = plat.with_failure_probabilities([0.1, 0.2])
        assert new.failure_probabilities == (0.1, 0.2)
        assert new.speeds == plat.speeds
        with pytest.raises(InvalidPlatformError):
            plat.with_failure_probabilities([0.1])

    def test_constructor_validation(self):
        with pytest.raises(InvalidPlatformError):
            Platform(processors=(), topology=UniformTopology(1, 1.0))
        with pytest.raises(InvalidPlatformError):
            Platform.communication_homogeneous(
                [1.0], failure_probabilities=[0.1, 0.2]
            )
        with pytest.raises(InvalidPlatformError):
            Platform.fully_homogeneous(2, failure_probabilities=[0.1])

    def test_processors_must_be_consecutive(self):
        procs = (
            Processor(index=1, speed=1.0, failure_probability=0.0),
            Processor(index=3, speed=1.0, failure_probability=0.0),
        )
        with pytest.raises(InvalidPlatformError):
            Platform(procs, UniformTopology(2, 1.0))

    def test_topology_size_must_match(self):
        procs = (Processor(index=1, speed=1.0, failure_probability=0.0),)
        with pytest.raises(InvalidPlatformError):
            Platform(procs, UniformTopology(2, 1.0))

    def test_fully_heterogeneous_constructor_fp_mismatch(self):
        with pytest.raises(InvalidPlatformError):
            Platform.fully_heterogeneous(
                speeds=[1.0],
                in_bandwidths=[1.0],
                out_bandwidths=[1.0],
                link_bandwidths=[[1.0]],
                failure_probabilities=[0.1, 0.2],
            )
