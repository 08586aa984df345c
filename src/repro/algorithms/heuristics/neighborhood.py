"""Neighbourhood moves over interval mappings (shared by the heuristics).

A *move* transforms one valid interval mapping into another (listed in
neighbourhood order):

* ``shift`` — move an interval boundary one stage left or right;
* ``merge`` — fuse two adjacent intervals, uniting their replica sets;
* ``split`` — cut an interval in two, dividing its replica set (or
  pulling an unused processor for the new half);
* ``add`` — enrol an unused processor as an extra replica;
* ``drop`` — retire a replica (keeping ``k_j >= 1``);
* ``swap`` — exchange an enrolled processor with an unused one.

All moves preserve validity by construction (consecutive intervals,
disjoint non-empty allocations), so the local search and the annealer
never need to re-validate structure.

The neighbourhood of one mapping is addressable by index
(:class:`Neighborhood`): its size comes from closed-form counts of the
six move kinds, and move ``i`` decodes on its own, in ``O(p)``, as
"replace intervals ``j..j+k-1`` (``k <= 2``) with one or two
``((start, end), allocation)`` pairs" — the form
:meth:`~repro.core.metrics.EvaluationCache.objectives_with` scores from
cached interval terms.  :func:`neighbors` and :func:`random_neighbor`
are expressed through it, so the order of the moves is defined once.
The annealer draws one index per proposal and local search walks a
shuffled list of indices; both build a mapping object only for the
moves they accept.
"""

from __future__ import annotations

import random
from typing import Iterator

from ...core.mapping import IntervalMapping, StageInterval

__all__ = [
    "Neighborhood",
    "neighbors",
    "random_neighbor",
    "random_mapping",
]

#: One move in replacement form: ``(j, k, replacement)`` replaces
#: intervals ``j..j+k-1`` with the ``((start, end), allocation)`` pairs
#: of ``replacement`` (one or two of them).
Move = tuple[int, int, tuple[tuple[tuple[int, int], frozenset[int]], ...]]


def _rebuild(
    intervals: list[tuple[int, int]], allocations: list[set[int]]
) -> IntervalMapping:
    return IntervalMapping(
        [StageInterval(s, e) for s, e in intervals],
        [frozenset(a) for a in allocations],
    )


def _locate(counts: list[int], i: int) -> tuple[int, int]:
    """``(j, offset)`` of index ``i`` in consecutive runs of ``counts``."""
    for j, count in enumerate(counts):
        if i < count:
            return j, i
        i -= count
    raise IndexError(i)


class Neighborhood:
    """The one-move neighbourhood of one mapping, addressable by index.

    Building it costs ``O(p + m)``: each section's size is a sum of
    closed-form per-interval counts.  :meth:`move` decodes move ``i`` in
    ``O(p)`` without materialising any other move, and :meth:`apply`
    turns a move into its mapping.  Sections come in the module
    docstring's order — shift, merge, split, add, drop, swap — with
    intervals left to right inside each; per interval, shifts give the
    boundary stage away before taking one, splits run over the cuts
    left to right (the halved replica set first when ``k_j >= 2``, then
    each unused processor on the right half and on the left half), and
    victims and unused processors come in ascending order.
    """

    def __init__(self, mapping: IntervalMapping, num_processors: int) -> None:
        self.mapping = mapping
        allocations = mapping.allocations
        used = set().union(*allocations)
        self._unused = [u for u in range(1, num_processors + 1) if u not in used]
        u = len(self._unused)
        fresh = 2 * u
        # per-interval (per-boundary for shifts) move counts
        self._shift_counts = shift = []
        self._split_counts = split = []
        self._drop_counts = drop = []
        self._swap_counts = swap = []
        was_long = None
        for iv, alloc in zip(mapping.intervals, allocations):
            k = len(alloc)
            is_long = iv.end > iv.start
            if was_long is not None:
                # give when the left interval is long, take when the
                # right one is
                shift.append(was_long + is_long)
            was_long = is_long
            # per cut: the halved replica set (k >= 2), then each fresh
            # processor on either half
            split.append((iv.end - iv.start) * ((k >= 2) + fresh))
            drop.append(k if k > 1 else 0)
            swap.append(k * u)
        p = len(allocations)
        self._sizes = (sum(shift), p - 1, sum(split), p * u, sum(drop), sum(swap))
        self.size = sum(self._sizes)

    def move(self, i: int) -> Move:
        """Move ``i`` as ``(j, k, replacement)`` (see :data:`Move`)."""
        if i >= 0:
            for count, decode in zip(self._sizes, _SECTIONS):
                if i < count:
                    return decode(self, i)
                i -= count
        raise IndexError("neighbourhood index out of range")

    def apply(self, move: Move) -> IntervalMapping:
        """The mapping ``move`` leads to (moves keep the structure valid,
        so it is built without re-validation)."""
        j, k, replacement = move
        intervals = self.mapping.intervals
        allocations = self.mapping.allocations
        if k == 1 and len(replacement) == 1:
            # one interval in, one out: same stages, new allocation
            return IntervalMapping._trusted(
                intervals,
                allocations[:j] + (replacement[0][1],) + allocations[j + 1 :],
            )
        return IntervalMapping._trusted(
            intervals[:j]
            + tuple(StageInterval(*span) for span, _ in replacement)
            + intervals[j + k :],
            allocations[:j]
            + tuple(alloc for _, alloc in replacement)
            + allocations[j + k :],
        )

    def __getitem__(self, i: int) -> IntervalMapping:
        return self.apply(self.move(i))

    # -- the six sections, in order ------------------------------------
    def _shift(self, i: int) -> Move:
        j, r = _locate(self._shift_counts, i)
        left, right = self.mapping.intervals[j : j + 2]
        if r == 0 and left.end > left.start:
            # give the last stage of I_j to I_{j+1}
            spans = ((left.start, left.end - 1), (left.end, right.end))
        else:  # take the first stage of I_{j+1}
            spans = ((left.start, left.end + 1), (right.start + 1, right.end))
        allocations = self.mapping.allocations
        return j, 2, ((spans[0], allocations[j]), (spans[1], allocations[j + 1]))

    def _merge(self, j: int) -> Move:
        intervals = self.mapping.intervals
        allocations = self.mapping.allocations
        span = (intervals[j].start, intervals[j + 1].end)
        return j, 2, ((span, allocations[j] | allocations[j + 1]),)

    def _split(self, i: int) -> Move:
        j, r = _locate(self._split_counts, i)
        iv, full = self.mapping.intervals[j], self.mapping.allocations[j]
        per_cut = (len(full) >= 2) + 2 * len(self._unused)
        cut = iv.start + r // per_cut
        r %= per_cut
        if len(full) >= 2:
            if r == 0:  # divide the replica set: first half / second half
                ordered = sorted(full)
                half = len(ordered) // 2
                left = frozenset(ordered[:half])
                right = frozenset(ordered[half:])
                return j, 1, (((iv.start, cut), left), ((cut + 1, iv.end), right))
            r -= 1
        # keep the replica set on one half, enrol a fresh processor
        extra = frozenset((self._unused[r // 2],))
        left, right = (full, extra) if r % 2 == 0 else (extra, full)
        return j, 1, (((iv.start, cut), left), ((cut + 1, iv.end), right))

    def _add(self, i: int) -> Move:
        j, r = divmod(i, len(self._unused))
        iv = self.mapping.intervals[j]
        allocation = self.mapping.allocations[j] | {self._unused[r]}
        return j, 1, (((iv.start, iv.end), allocation),)

    def _drop(self, i: int) -> Move:
        allocations = self.mapping.allocations
        j, r = _locate(self._drop_counts, i)
        iv = self.mapping.intervals[j]
        victim = sorted(allocations[j])[r]
        return j, 1, (((iv.start, iv.end), allocations[j] - {victim}),)

    def _swap(self, i: int) -> Move:
        allocations = self.mapping.allocations
        u = len(self._unused)
        j, r = _locate(self._swap_counts, i)
        iv = self.mapping.intervals[j]
        victim = sorted(allocations[j])[r // u]
        allocation = (allocations[j] - {victim}) | {self._unused[r % u]}
        return j, 1, (((iv.start, iv.end), allocation),)


#: the section decoders, in neighbourhood order
_SECTIONS = (
    Neighborhood._shift,
    Neighborhood._merge,
    Neighborhood._split,
    Neighborhood._add,
    Neighborhood._drop,
    Neighborhood._swap,
)


def neighbors(
    mapping: IntervalMapping, num_processors: int
) -> Iterator[IntervalMapping]:
    """Yield every mapping one move away from ``mapping``.

    Deterministic order (that of :class:`Neighborhood`); callers
    shuffle if needed.
    """
    neighborhood = Neighborhood(mapping, num_processors)
    for i in range(neighborhood.size):
        yield neighborhood[i]


def random_neighbor(
    mapping: IntervalMapping, num_processors: int, rng: random.Random
) -> IntervalMapping:
    """A uniformly random single-move neighbour (annealing primitive).

    One ``rng.choice(range(size))`` draw over :class:`Neighborhood`
    indices — the same draw as ``rng.choice(list(neighbors(...)))``.
    Falls back to the mapping itself, without drawing, when no move
    applies (cannot happen for ``m >= 2``: the swap/add space is
    non-empty unless all processors are enrolled, in which case
    drop/merge/shift applies for ``n >= 2`` — and a 1-stage 1-processor
    instance genuinely has a single mapping).
    """
    neighborhood = Neighborhood(mapping, num_processors)
    if not neighborhood.size:
        return mapping
    return neighborhood[rng.choice(range(neighborhood.size))]


def random_mapping(
    num_stages: int, num_processors: int, rng: random.Random
) -> IntervalMapping:
    """A uniformly-ish random valid interval mapping (restart primitive).

    Draws the interval count, then boundaries, then a random disjoint
    allocation giving each interval at least one processor.
    """
    p = rng.randint(1, min(num_stages, num_processors))
    cuts = sorted(rng.sample(range(1, num_stages), p - 1))
    bounds = [0, *cuts, num_stages]
    intervals = [(lo + 1, hi) for lo, hi in zip(bounds, bounds[1:])]

    procs = list(range(1, num_processors + 1))
    rng.shuffle(procs)
    allocations: list[set[int]] = [{procs[j]} for j in range(p)]
    remaining = procs[p:]
    for u in remaining:
        if rng.random() < 0.5:  # leave some processors idle
            continue
        allocations[rng.randrange(p)].add(u)
    return _rebuild(intervals, allocations)
