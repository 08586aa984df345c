"""Tests for the neighbourhood moves over interval mappings."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.heuristics import (
    Neighborhood,
    neighbors,
    random_mapping,
    random_neighbor,
)
from repro.core import IntervalMapping, Platform, StageInterval

from tests.strategies import app_platform_mapping, interval_mappings

#: move kinds in the order every form of the neighbourhood lists them
SECTIONS = ("shift", "merge", "split", "add", "drop", "swap")


def _mask(processors):
    result = 0
    for u in processors:
        result |= 1 << (u - 1)
    return result


def neighbor_rows(mapping, num_processors):
    """Every move in ``(ends, masks)`` row form, in neighbourhood order.

    The move-order oracle: written from the move definitions alone as
    integer tuples (interval ends, allocation bitmasks with bit ``u-1``
    for processor ``u``), sharing nothing with :class:`Neighborhood`'s
    closed-form counts and per-section decoders.
    """
    ends = tuple(iv.end for iv in mapping.intervals)
    masks = tuple(_mask(a) for a in mapping.allocations)
    allocs = [sorted(a) for a in mapping.allocations]
    p = len(ends)
    used = mapping.used_processors
    unused = [u for u in range(1, num_processors + 1) if u not in used]
    unused_bits = [1 << (u - 1) for u in unused]

    # shift boundaries
    starts = (1,) + tuple(e + 1 for e in ends[:-1])
    for j in range(p - 1):
        s1, e1 = starts[j], ends[j]
        s2, e2 = starts[j + 1], ends[j + 1]
        if e1 > s1:  # give last stage of I_j to I_{j+1}
            yield ends[:j] + (e1 - 1,) + ends[j + 1 :], masks
        if e2 > s2:  # take first stage of I_{j+1}
            yield ends[:j] + (e1 + 1,) + ends[j + 1 :], masks

    # merge adjacent intervals
    for j in range(p - 1):
        yield (
            ends[:j] + ends[j + 1 :],
            masks[:j] + (masks[j] | masks[j + 1],) + masks[j + 2 :],
        )

    # split an interval
    for j in range(p):
        s, e = starts[j], ends[j]
        alloc = allocs[j]
        full = masks[j]
        for cut in range(s, e):
            split_ends = ends[:j] + (cut,) + ends[j:]
            if len(alloc) >= 2:
                half = len(alloc) // 2
                left, right = _mask(alloc[:half]), _mask(alloc[half:])
                yield split_ends, masks[:j] + (left, right) + masks[j + 1 :]
            for extra in unused_bits:
                yield split_ends, masks[:j] + (full, extra) + masks[j + 1 :]
                yield split_ends, masks[:j] + (extra, full) + masks[j + 1 :]

    # add a replica
    for j in range(p):
        for extra in unused_bits:
            yield ends, masks[:j] + (masks[j] | extra,) + masks[j + 1 :]

    # drop a replica
    for j in range(p):
        if len(allocs[j]) > 1:
            for victim in allocs[j]:
                bit = 1 << (victim - 1)
                yield ends, masks[:j] + (masks[j] & ~bit,) + masks[j + 1 :]

    # swap an enrolled processor for an unused one
    for j in range(p):
        for victim in allocs[j]:
            bit = 1 << (victim - 1)
            without = masks[j] & ~bit
            for extra in unused_bits:
                yield ends, masks[:j] + (without | extra,) + masks[j + 1 :]


def row_mapping(row, num_processors):
    """Decode one ``(ends, masks)`` row through the validating constructor."""
    ends, masks = row
    intervals = []
    allocations = []
    start = 1
    for end, mask in zip(ends, masks):
        intervals.append(StageInterval(start, end))
        allocations.append(
            {u + 1 for u in range(num_processors) if mask >> u & 1}
        )
        start = end + 1
    return IntervalMapping(intervals, allocations)


def _kind(mapping, neighbour):
    """Which move leads from ``mapping`` to ``neighbour`` (read off the
    two mappings, not off the move encoding)."""
    p, q = mapping.num_intervals, neighbour.num_intervals
    if q == p - 1:
        return "merge"
    if q == p + 1:
        return "split"
    if neighbour.intervals != mapping.intervals:
        return "shift"
    (j,) = [
        j
        for j, (a, b) in enumerate(zip(mapping.allocations, neighbour.allocations))
        if a != b
    ]
    grown = len(neighbour.allocations[j]) - len(mapping.allocations[j])
    return {1: "add", -1: "drop", 0: "swap"}[grown]


class TestNeighbors:
    def test_all_neighbors_valid(self):
        mapping = IntervalMapping([(1, 2), (3, 4)], [{1, 2}, {3}])
        for nb in neighbors(mapping, num_processors=5):
            assert isinstance(nb, IntervalMapping)
            assert nb.num_stages == 4

    def test_merge_reaches_single_interval(self):
        mapping = IntervalMapping([(1, 1), (2, 2)], [{1}, {2}])
        merged = [
            nb for nb in neighbors(mapping, 2) if nb.is_single_interval
        ]
        assert merged
        assert merged[0].allocations[0] == frozenset({1, 2})

    def test_split_present_for_multistage_interval(self):
        mapping = IntervalMapping.single_interval(3, {1, 2})
        splits = [
            nb for nb in neighbors(mapping, 4) if nb.num_intervals == 2
        ]
        assert splits

    def test_add_and_drop_replicas(self):
        mapping = IntervalMapping.single_interval(2, {1, 2})
        sizes = {
            len(nb.allocations[0])
            for nb in neighbors(mapping, 3)
            if nb.is_single_interval
        }
        assert 1 in sizes  # drop
        assert 3 in sizes  # add

    def test_shift_moves_boundary(self):
        mapping = IntervalMapping([(1, 2), (3, 3)], [{1}, {2}])
        boundaries = {
            tuple(iv.end for iv in nb.intervals)
            for nb in neighbors(mapping, 2)
            if nb.num_intervals == 2
        }
        assert (1, 3) in boundaries

    @given(
        interval_mappings(num_stages=4, num_processors=5),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_neighbor_always_valid(self, mapping, seed):
        rng = random.Random(seed)
        nb = random_neighbor(mapping, 5, rng)
        assert isinstance(nb, IntervalMapping)
        assert nb.num_stages == mapping.num_stages
        assert all(1 <= u <= 5 for u in nb.used_processors)

    def test_single_stage_single_processor_fixed_point(self):
        mapping = IntervalMapping.single_interval(1, {1})
        rng = random.Random(0)
        nb = random_neighbor(mapping, 1, rng)
        assert nb == mapping


class TestIndexedNeighborhood:
    @settings(max_examples=100, deadline=None)
    @given(app_platform_mapping())
    def test_moves_match_rows_in_order(self, triple):
        """Move ``i`` is the ``i``-th row of the independent oracle
        above, and the ``i``-th mapping :func:`neighbors` yields."""
        _, plat, mapping = triple
        neighborhood = Neighborhood(mapping, plat.size)
        rows = list(neighbor_rows(mapping, plat.size))
        indexed = [neighborhood[i] for i in range(neighborhood.size)]
        assert neighborhood.size == len(rows)
        assert indexed == [row_mapping(r, plat.size) for r in rows]
        assert indexed == list(neighbors(mapping, plat.size))

    @settings(max_examples=100, deadline=None)
    @given(app_platform_mapping())
    def test_move_replaces_one_interval_run(self, triple):
        """``(j, k, replacement)``: at most two intervals out, one or two
        in, covering the same stages; the rest of the mapping is kept."""
        _, plat, mapping = triple
        neighborhood = Neighborhood(mapping, plat.size)
        for i in range(neighborhood.size):
            j, k, replacement = neighborhood.move(i)
            assert 1 <= k <= 2 and 1 <= len(replacement) <= 2
            kept = mapping.intervals[j : j + k]
            assert replacement[0][0][0] == kept[0].start
            assert replacement[-1][0][1] == kept[-1].end
            result = neighborhood.apply((j, k, replacement))
            assert result.intervals[:j] == mapping.intervals[:j]
            assert result.allocations[:j] == mapping.allocations[:j]
            tail = len(replacement) - k
            assert result.intervals[j + k + tail :] == mapping.intervals[j + k :]
            assert result.allocations[j + k + tail :] == mapping.allocations[j + k :]
            # the trusted build equals the validating constructor's
            assert result == IntervalMapping(result.intervals, result.allocations)

    def test_sections_in_documented_order(self):
        """Shift, merge, split, add, drop, swap — each section non-empty
        here, with its closed-form count."""
        mapping = IntervalMapping([(1, 2), (3, 5), (6, 6)], [{2, 4}, {1}, {5}])
        m = 6  # P3 and P6 unused
        neighborhood = Neighborhood(mapping, m)
        kinds = [_kind(mapping, neighborhood[i]) for i in range(neighborhood.size)]
        counts = {kind: kinds.count(kind) for kind in SECTIONS}
        assert kinds == [kind for kind in SECTIONS for _ in range(counts[kind])]
        assert counts == {
            "shift": 3,  # (1,2)|(3,5) both ways, (3,5)|(6,6) one way
            "merge": 2,
            "split": 1 * (1 + 2 * 2) + 2 * (2 * 2),
            "add": 3 * 2,
            "drop": 2,
            "swap": 4 * 2,
        }

    def test_index_out_of_range(self):
        neighborhood = Neighborhood(IntervalMapping.single_interval(2, {1}), 2)
        with pytest.raises(IndexError):
            neighborhood.move(neighborhood.size)
        with pytest.raises(IndexError):
            neighborhood.move(-1)

    def test_single_stage_single_processor_is_empty(self):
        mapping = IntervalMapping.single_interval(1, {1})
        assert Neighborhood(mapping, 1).size == 0
        assert list(neighbors(mapping, 1)) == []

    @given(
        app_platform_mapping(),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_neighbor_draws_like_choice_over_the_list(self, triple, seed):
        """One ``rng.choice`` over the indices: the same neighbour and the
        same rng state as ``rng.choice(list(neighbors(...)))``."""
        _, plat, mapping = triple
        indexed, listed = random.Random(seed), random.Random(seed)
        options = list(neighbors(mapping, plat.size))
        drawn = random_neighbor(mapping, plat.size, indexed)
        assert drawn == (listed.choice(options) if options else mapping)
        assert indexed.getstate() == listed.getstate()

    def test_wide_platform(self):
        """m = 17: the move order holds past 16 processors."""
        rng = random.Random(0)
        plat = Platform.communication_homogeneous(
            [rng.uniform(1.0, 8.0) for _ in range(17)],
            bandwidth=4.0,
            failure_probabilities=[rng.uniform(0.05, 0.6) for _ in range(17)],
        )
        mapping = random_mapping(5, plat.size, rng)
        neighborhood = Neighborhood(mapping, plat.size)
        rows = list(neighbor_rows(mapping, plat.size))
        assert [neighborhood[i] for i in range(neighborhood.size)] == [
            row_mapping(r, plat.size) for r in rows
        ]


class TestRandomMapping:
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=100, deadline=None)
    def test_random_mapping_valid(self, seed):
        rng = random.Random(seed)
        mapping = random_mapping(4, 6, rng)
        assert mapping.num_stages == 4
        assert all(1 <= u <= 6 for u in mapping.used_processors)

    def test_deterministic_given_seed(self):
        a = random_mapping(5, 5, random.Random(99))
        b = random_mapping(5, 5, random.Random(99))
        assert a == b
