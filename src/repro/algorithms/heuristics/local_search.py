"""Hill-climbing local search over interval mappings.

First-improvement descent over the move set of
:mod:`repro.algorithms.heuristics.neighborhood`, with multi-restart.  The
search optimises a lexicographic objective:

* query *min FP s.t. latency <= L*: primary = FP among feasible
  mappings; infeasible mappings are ranked by latency excess, so descent
  can walk back into the feasible region;
* query *min latency s.t. FP <= bound*: symmetric.

Works on every platform class (it only consumes the generic metric
functions) — this is the workhorse for the NP-hard Fully Heterogeneous
and the open Communication Homogeneous / Failure Heterogeneous cases.

Each descent step shuffles the move indices of the current state's
:class:`~repro.algorithms.heuristics.neighborhood.Neighborhood` (one
``rng.shuffle`` of a list as long as the list of neighbour mappings, so
the rng stream is the same) and decodes the moves one at a time in that
order.  A move replaces at most two intervals, so it is scored from
cached interval terms through
:meth:`~repro.core.metrics.EvaluationCache.objectives_with`, and a
mapping object is built only for the move accepted.  Because the rank
is lexicographic, a move's failure probability alone
(:meth:`~repro.core.metrics.EvaluationCache.failure_probability_with`,
about half the cost) often proves it no better than the current state;
such a move is rejected before its latency is looked up.  Every
decision is taken on exact values, so the accepted moves and the result
are bit-identical to ranking every neighbour mapping in full (the
reference loop the tests keep as an oracle).  No numpy is needed.
"""

from __future__ import annotations

import random
from typing import Any, Callable

from ..result import SolverResult, threshold_bound
from .neighborhood import Move, Neighborhood, random_mapping
from .single_interval import single_interval_mappings
from .warm import WarmStarts, decode_warm_starts
from ...core.application import PipelineApplication
from ...core.mapping import IntervalMapping
from ...core.metrics import EvaluationCache, failure_probability, latency
from ...core.platform import Platform
from ...core.serialization import mapping_to_dict
from ...exceptions import InfeasibleProblemError

__all__ = ["local_search_minimize_fp", "local_search_minimize_latency"]

_Rank = tuple[int, float, float]
#: ``(latency, FP) -> rank`` of one query; lower ranks are better
_RankOf = Callable[[float, float], _Rank]
#: ``(state, its rank, move) -> True`` when the move's failure
#: probability alone proves that the move does not improve on the state
_Rejects = Callable[[IntervalMapping, _Rank, Move], bool]


def _descend(
    cache: EvaluationCache,
    start: IntervalMapping,
    start_rank: _Rank,
    rank: _RankOf,
    rejects: _Rejects,
    rng: random.Random,
    max_steps: int,
    trace: list[IntervalMapping] | None,
    recorder: Any,
) -> tuple[IntervalMapping, _Rank, int]:
    current, current_rank = start, start_rank
    steps = 0
    while steps < max_steps:
        steps += 1
        neighborhood = Neighborhood(current, cache.platform.size)
        order = list(range(neighborhood.size))
        rng.shuffle(order)
        for i in order:
            move = neighborhood.move(i)
            if rejects(current, current_rank, move):
                continue
            cand_rank = rank(*cache.objectives_with(current, *move))
            if cand_rank < current_rank:
                current, current_rank = neighborhood.apply(move), cand_rank
                if trace is not None:
                    trace.append(current)
                if recorder is not None:
                    recorder.emit(
                        "accept",
                        mapping=mapping_to_dict(current),
                        rank=current_rank,
                    )
                break
        else:
            break  # local optimum
    return current, current_rank, steps


def _solve(
    application: PipelineApplication,
    platform: Platform,
    cache: EvaluationCache,
    rank: _RankOf,
    rejects: _Rejects,
    *,
    restarts: int,
    max_steps: int,
    seed: int | None,
    trace: list[IntervalMapping] | None,
    warm_starts: list[IntervalMapping],
    recorder: Any = None,
) -> tuple[IntervalMapping, _Rank, int]:
    rng = recorder.rng(seed) if recorder is not None else random.Random(seed)

    def mapping_rank(mapping: IntervalMapping) -> _Rank:
        return rank(cache.latency(mapping), cache.failure_probability(mapping))

    # Deterministic starts: caller-supplied warm starts first (sweep
    # chaining seeds descents from the previous threshold's optimum —
    # descent is monotone, so the result can never rank worse than any
    # of them), then the best few single-interval candidates, then
    # random restarts up to the restart budget.
    warm = sorted(
        single_interval_mappings(application, platform), key=mapping_rank
    )
    starts: list[IntervalMapping] = [*warm_starts, *warm[:3]]
    while len(starts) < max(restarts, 1):
        starts.append(
            random_mapping(application.num_stages, platform.size, rng)
        )

    best: IntervalMapping | None = None
    best_rank: _Rank | None = None
    total_steps = 0
    for index, start in enumerate(starts):
        if recorder is not None:
            recorder.emit(
                "restart", index=index, start=mapping_to_dict(start)
            )
        result, result_rank, steps = _descend(
            cache,
            start,
            mapping_rank(start),
            rank,
            rejects,
            rng,
            max_steps,
            trace,
            recorder,
        )
        total_steps += steps
        if recorder is not None:
            recorder.emit(
                "descent_end", index=index, steps=steps, rank=result_rank
            )
        if best_rank is None or result_rank < best_rank:
            best, best_rank = result, result_rank
    assert best is not None and best_rank is not None
    return best, best_rank, total_steps


def local_search_minimize_fp(
    application: PipelineApplication,
    platform: Platform,
    latency_threshold: float,
    *,
    restarts: int = 8,
    max_steps: int = 200,
    seed: int | None = 0,
    tolerance: float = 1e-9,
    trace: list[IntervalMapping] | None = None,
    warm_starts: WarmStarts | None = None,
    recorder: Any = None,
) -> SolverResult:
    """Hill-climbing for 'minimise FP subject to latency <= L'.

    Pass a list as ``trace`` to collect every accepted mapping in order
    (equivalence testing / trajectory inspection).  ``warm_starts``
    (mappings or their serialised dicts) seed extra descents ahead of
    the built-in starts; the result never ranks worse than any supplied
    warm start (see :mod:`repro.algorithms.heuristics.warm`).
    ``recorder`` (a :class:`repro.engine.recorder.RunRecorder`) captures
    restarts and accepted moves as an event log without changing the
    trajectory.

    Raises
    ------
    InfeasibleProblemError
        If the search never reaches the feasible region.
    InvalidMappingError
        If a warm start does not fit the instance.
    """
    warm = decode_warm_starts(warm_starts, application, platform)
    bound = threshold_bound(latency_threshold, tolerance)
    cache = EvaluationCache(application, platform)
    if recorder is not None:
        recorder.observe_cache(cache)

    def rank(lat: float, fp: float) -> _Rank:
        if lat <= bound:
            return (0, fp, lat)
        return (1, lat - latency_threshold, fp)

    def rejects(state: IntervalMapping, state_rank: _Rank, move: Move) -> bool:
        # a feasible state is beaten only by a feasible move with no
        # larger FP; an infeasible one ranks on latency first
        return (
            state_rank[0] == 0
            and cache.failure_probability_with(state, *move) > state_rank[1]
        )

    best, best_rank, steps = _solve(
        application,
        platform,
        cache,
        rank,
        rejects,
        restarts=restarts,
        max_steps=max_steps,
        seed=seed,
        trace=trace,
        warm_starts=warm,
        recorder=recorder,
    )
    if best_rank[0] != 0:
        raise InfeasibleProblemError(
            "local search found no mapping under the latency threshold "
            f"{latency_threshold}"
        )
    return SolverResult(
        mapping=best,
        latency=latency(best, application, platform),
        failure_probability=best_rank[1],
        solver="local-search-min-fp",
        optimal=False,
        extras={"steps": steps, "restarts": restarts},
    )


def local_search_minimize_latency(
    application: PipelineApplication,
    platform: Platform,
    fp_threshold: float,
    *,
    restarts: int = 8,
    max_steps: int = 200,
    seed: int | None = 0,
    tolerance: float = 1e-9,
    trace: list[IntervalMapping] | None = None,
    warm_starts: WarmStarts | None = None,
    recorder: Any = None,
) -> SolverResult:
    """Hill-climbing for 'minimise latency subject to FP <= bound'.

    ``trace``/``warm_starts``/``recorder`` behave as in
    :func:`local_search_minimize_fp`.

    Raises
    ------
    InfeasibleProblemError
        If the search never reaches the feasible region.
    InvalidMappingError
        If a warm start does not fit the instance.
    """
    warm = decode_warm_starts(warm_starts, application, platform)
    bound = threshold_bound(fp_threshold, tolerance)
    cache = EvaluationCache(application, platform)
    if recorder is not None:
        recorder.observe_cache(cache)

    def rank(lat: float, fp: float) -> _Rank:
        if fp <= bound:
            return (0, lat, fp)
        return (1, fp - fp_threshold, lat)

    def rejects(state: IntervalMapping, state_rank: _Rank, move: Move) -> bool:
        # a move over the FP bound beats no feasible state, and beats an
        # infeasible one only with an FP excess no larger than its own
        fp = cache.failure_probability_with(state, *move)
        return fp > bound and (
            state_rank[0] == 0 or fp - fp_threshold > state_rank[1]
        )

    best, best_rank, steps = _solve(
        application,
        platform,
        cache,
        rank,
        rejects,
        restarts=restarts,
        max_steps=max_steps,
        seed=seed,
        trace=trace,
        warm_starts=warm,
        recorder=recorder,
    )
    if best_rank[0] != 0:
        raise InfeasibleProblemError(
            "local search found no mapping under the FP threshold "
            f"{fp_threshold}"
        )
    return SolverResult(
        mapping=best,
        latency=best_rank[1],
        failure_probability=failure_probability(best, platform),
        solver="local-search-min-latency",
        optimal=False,
        extras={"steps": steps, "restarts": restarts},
    )
