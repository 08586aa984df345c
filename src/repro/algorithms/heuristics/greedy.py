"""Constructive split-and-replicate heuristic.

A multi-interval constructive procedure inspired by the paper's Figure 5
insight: pair slow-but-reliable processors with light stages and throw
fast-unreliable replicas at heavy stages.

For every interval count ``p`` (1 up to ``min(n, m)``):

1. **Split** the pipeline into ``p`` intervals by balancing interval work
   (greedy chain partitioning on the prefix sums);
2. **Seed** each interval with one processor: intervals sorted by work,
   heaviest first, get the fastest unassigned processor;
3. **Replicate greedily**: while the latency budget allows, enrol the
   unused processor into the interval where it most decreases the global
   FP per unit of latency increase.

The best outcome over all ``p`` is returned.  Both threshold queries are
supported; for the latency-minimisation query step 3 instead adds the
replica with the smallest latency increase until the FP bound is met.

This is a heuristic: Theorem 7 (Fully Heterogeneous) and the Section 4.4
conjecture (Communication Homogeneous / Failure Heterogeneous) rule out
exact polynomial algorithms.

An enrolment trial changes one interval's replica set: one FP term, one
eq. (1) term or at most two eq. (2) terms.  Every trial, seed and warm
start of a solve is therefore scored through one
:class:`~repro.core.metrics.EvaluationCache`, whose
:meth:`~repro.core.metrics.EvaluationCache.objectives_with` looks up
only the changed terms and is bit-identical to evaluating the trial
mapping from scratch — so the enrolment sequence equals the plain
per-trial scalar loop's (a machine-checked property).
"""

from __future__ import annotations

from typing import Any, Iterator

from ..result import SolverResult, threshold_bound
from ...core.application import PipelineApplication
from ...core.mapping import IntervalMapping, StageInterval
from ...core.metrics import EvaluationCache
from ...core.platform import Platform
from ...core.serialization import mapping_to_dict
from ...exceptions import InfeasibleProblemError
from .warm import WarmStarts, decode_warm_starts

__all__ = ["greedy_minimize_fp", "greedy_minimize_latency", "balanced_partition"]


def balanced_partition(
    application: PipelineApplication, num_intervals: int
) -> list[StageInterval]:
    """Split stages into ``p`` intervals with roughly equal work.

    Greedy sweep over the prefix sums: close the current interval once it
    holds at least ``total/p`` of the remaining work, always leaving
    enough stages for the remaining intervals.
    """
    n = application.num_stages
    p = min(num_intervals, n)
    intervals: list[StageInterval] = []
    start = 1
    remaining_work = application.total_work
    for j in range(p, 0, -1):
        if j == 1:
            intervals.append(StageInterval(start, n))
            break
        target = remaining_work / j
        acc = 0.0
        end = start
        # leave at least j-1 stages for the remaining intervals
        last_allowed = n - (j - 1)
        while end < last_allowed:
            acc += application.work(end)
            if acc >= target:
                break
            end += 1
        intervals.append(StageInterval(start, end))
        remaining_work -= application.interval_work(start, end)
        start = end + 1
    return intervals


def _seed_allocations(
    application: PipelineApplication,
    platform: Platform,
    intervals: list[StageInterval],
) -> list[set[int]]:
    """One processor per interval: heaviest interval gets the fastest."""
    order = sorted(
        range(len(intervals)),
        key=lambda j: -application.interval_work(
            intervals[j].start, intervals[j].end
        ),
    )
    by_speed = platform.by_speed_descending()
    allocations: list[set[int]] = [set() for _ in intervals]
    for rank, j in enumerate(order):
        allocations[j] = {by_speed[rank].index}
    return allocations


def _seed_allocations_reliable(
    application: PipelineApplication,
    platform: Platform,
    intervals: list[StageInterval],
) -> list[set[int]]:
    """Reliability-aware seed: the heaviest interval gets the fastest
    processor, every other interval (in decreasing work order) gets the
    most *reliable* remaining one.

    This is the Figure 5 pattern: pair the slow-but-reliable processor
    with the light stage and reserve the fast (possibly flaky) processors
    for the compute-heavy interval.
    """
    order = sorted(
        range(len(intervals)),
        key=lambda j: -application.interval_work(
            intervals[j].start, intervals[j].end
        ),
    )
    allocations: list[set[int]] = [set() for _ in intervals]
    remaining = list(platform.processors)
    # heaviest interval: fastest processor
    heavy = order[0]
    fastest = max(remaining, key=lambda p: (p.speed, -p.index))
    allocations[heavy] = {fastest.index}
    remaining.remove(fastest)
    for j in order[1:]:
        pick = min(
            remaining, key=lambda p: (p.failure_probability, -p.speed, p.index)
        )
        allocations[j] = {pick.index}
        remaining.remove(pick)
    return allocations


def _constructions(
    application: PipelineApplication, platform: Platform
) -> Iterator[tuple[int, str, IntervalMapping]]:
    """Every ``(p, seed name, seed mapping)`` the procedure grows from."""
    for p in range(1, min(application.num_stages, platform.size) + 1):
        intervals = balanced_partition(application, p)
        if len(intervals) < p:
            continue
        for seed_fn in (_seed_allocations, _seed_allocations_reliable):
            allocations = seed_fn(application, platform, intervals)
            yield p, seed_fn.__name__, IntervalMapping(intervals, allocations)


def _trials(
    mapping: IntervalMapping, unused: list[int]
) -> Iterator[tuple[int, int, frozenset[int], tuple]]:
    """One round's ``(u, j, enlarged allocation, replacement)`` enrolment
    trials, in the order ties are broken: processors outer, intervals
    inner.  ``replacement`` is the trial as the one
    ``((start, end), allocation)`` pair that
    :meth:`~repro.core.metrics.EvaluationCache.objectives_with` scores
    in place of interval ``j``."""
    spans = [(iv.start, iv.end) for iv in mapping.intervals]
    for u in unused:
        extra = frozenset((u,))
        for j, alloc in enumerate(mapping.allocations):
            allocation = alloc | extra
            yield u, j, allocation, ((spans[j], allocation),)


def _enrolled(
    mapping: IntervalMapping, j: int, allocation: frozenset[int]
) -> IntervalMapping:
    """``mapping`` with interval ``j`` on ``allocation`` (an enlarged set
    of an unused processor, so the structural rules still hold)."""
    allocations = list(mapping.allocations)
    allocations[j] = allocation
    return IntervalMapping._trusted(mapping.intervals, tuple(allocations))


def _warm_results(
    cache: EvaluationCache,
    warm_starts: WarmStarts | None,
    solver: str,
) -> list[SolverResult]:
    """Warm starts evaluated as ready-made candidates.

    The greedy procedure is constructive (there is no descent to seed),
    so warm starts compete directly against the constructed mappings in
    the final selection — which is exactly what makes the result never
    worse than any feasible warm start.
    """
    return [
        SolverResult(
            mapping=mapping,
            latency=cache.latency(mapping),
            failure_probability=cache.failure_probability(mapping),
            solver=solver,
            optimal=False,
            extras={"intervals": mapping.num_intervals, "seed": "warm_start"},
        )
        for mapping in decode_warm_starts(
            warm_starts, cache.application, cache.platform
        )
    ]


def greedy_minimize_fp(
    application: PipelineApplication,
    platform: Platform,
    latency_threshold: float,
    *,
    tolerance: float = 1e-9,
    warm_starts: WarmStarts | None = None,
    recorder: Any = None,
) -> SolverResult:
    """Greedy split-and-replicate for 'minimise FP s.t. latency <= L'.

    ``warm_starts`` (mappings or serialised dicts) compete as
    ready-made candidates in the final selection, so the result is never
    worse than any feasible warm start.  ``recorder`` (a
    :class:`repro.engine.recorder.RunRecorder`) captures every seed
    construction and enrolment decision with its scalar scores.

    Raises
    ------
    InfeasibleProblemError
        If no constructed candidate meets the latency threshold.
    """
    bound = threshold_bound(latency_threshold, tolerance)
    m = platform.size
    solver = "greedy-split-replicate-min-fp"
    cache = EvaluationCache(application, platform)
    if recorder is not None:
        recorder.observe_cache(cache)
    best: SolverResult | None = None
    for cand in _warm_results(cache, warm_starts, solver):
        if cand.latency > bound:
            continue
        if best is None or (
            (cand.failure_probability, cand.latency)
            < (best.failure_probability, best.latency)
        ):
            best = cand

    for p, seed, mapping in _constructions(application, platform):
        lat = cache.latency(mapping)
        if lat > bound:
            continue  # seed already too slow; other p / seed may fit
        if recorder is not None:
            recorder.emit(
                "construct",
                p=p,
                seed=seed,
                mapping=mapping_to_dict(mapping),
                latency=lat,
            )

        # replicate greedily while the budget allows
        used = mapping.used_processors
        unused = [u for u in range(1, m + 1) if u not in used]
        improved = True
        while improved and unused:
            improved = False
            current_fp = cache.failure_probability(mapping)
            best_gain = 0.0
            best_choice: tuple[int, int, frozenset[int], float] | None = None
            for u, j, allocation, trial in _trials(mapping, unused):
                trial_lat, trial_fp = cache.objectives_with(mapping, j, 1, trial)
                if trial_lat > bound:
                    continue
                gain = current_fp - trial_fp
                if gain > best_gain + 1e-15:
                    best_gain = gain
                    best_choice = (u, j, allocation, trial_lat)
            if best_choice is not None:
                u, j, allocation, lat = best_choice
                mapping = _enrolled(mapping, j, allocation)
                unused.remove(u)
                improved = True
                if recorder is not None:
                    recorder.emit(
                        "enroll",
                        p=p,
                        seed=seed,
                        u=u,
                        j=j,
                        gain=best_gain,
                        latency=lat,
                    )

        lat = cache.latency(mapping)
        fp = cache.failure_probability(mapping)
        if recorder is not None:
            recorder.emit("candidate", p=p, seed=seed, latency=lat, fp=fp)
        if best is None or (fp, lat) < (best.failure_probability, best.latency):
            best = SolverResult(
                mapping=mapping,
                latency=lat,
                failure_probability=fp,
                solver=solver,
                optimal=False,
                extras={"intervals": p, "seed": seed},
            )

    if best is None:
        raise InfeasibleProblemError(
            "greedy construction found no mapping under the latency "
            f"threshold {latency_threshold}"
        )
    return best


def greedy_minimize_latency(
    application: PipelineApplication,
    platform: Platform,
    fp_threshold: float,
    *,
    tolerance: float = 1e-9,
    warm_starts: WarmStarts | None = None,
    recorder: Any = None,
) -> SolverResult:
    """Greedy split-and-replicate for 'minimise latency s.t. FP <= bound'.

    For each interval count the seed mapping is repaired towards
    feasibility by enrolling, at each step, the replica with the smallest
    latency increase per unit of FP decrease.  ``warm_starts`` and
    ``recorder`` behave as in :func:`greedy_minimize_fp`.

    Raises
    ------
    InfeasibleProblemError
        If no constructed candidate meets the FP threshold.
    """
    bound = threshold_bound(fp_threshold, tolerance)
    m = platform.size
    solver = "greedy-split-replicate-min-latency"
    cache = EvaluationCache(application, platform)
    if recorder is not None:
        recorder.observe_cache(cache)
    best: SolverResult | None = None
    for cand in _warm_results(cache, warm_starts, solver):
        if cand.failure_probability > bound:
            continue
        if best is None or (
            (cand.latency, cand.failure_probability)
            < (best.latency, best.failure_probability)
        ):
            best = cand

    for p, seed, mapping in _constructions(application, platform):
        if recorder is not None:
            recorder.emit(
                "construct",
                p=p,
                seed=seed,
                mapping=mapping_to_dict(mapping),
                latency=cache.latency(mapping),
            )

        used = mapping.used_processors
        unused = [u for u in range(1, m + 1) if u not in used]
        while cache.failure_probability(mapping) > bound and unused:
            current_fp = cache.failure_probability(mapping)
            current_lat = cache.latency(mapping)
            best_score = float("inf")
            best_choice: tuple[int, int, frozenset[int]] | None = None
            for u, j, allocation, trial in _trials(mapping, unused):
                trial_lat, trial_fp = cache.objectives_with(mapping, j, 1, trial)
                fp_gain = current_fp - trial_fp
                if fp_gain <= 0:
                    continue
                score = max(trial_lat - current_lat, 0.0) / fp_gain
                if score < best_score:
                    best_score = score
                    best_choice = (u, j, allocation)
            if best_choice is None:
                break
            u, j, allocation = best_choice
            mapping = _enrolled(mapping, j, allocation)
            unused.remove(u)
            if recorder is not None:
                recorder.emit("enroll", p=p, seed=seed, u=u, j=j, score=best_score)

        fp = cache.failure_probability(mapping)
        if fp > bound:
            continue
        lat = cache.latency(mapping)
        if recorder is not None:
            recorder.emit("candidate", p=p, seed=seed, latency=lat, fp=fp)
        if best is None or (lat, fp) < (best.latency, best.failure_probability):
            best = SolverResult(
                mapping=mapping,
                latency=lat,
                failure_probability=fp,
                solver=solver,
                optimal=False,
                extras={"intervals": p, "seed": seed},
            )

    if best is None:
        raise InfeasibleProblemError(
            "greedy construction found no mapping under the FP threshold "
            f"{fp_threshold}"
        )
    return best
