"""Reference oracle for the local search.

The classic loop the local-search solvers ran before they walked move
indices: every descent step rebuilds the whole one-move neighbourhood
as mapping objects (``list(neighbors(...))``), shuffles that list and
ranks each neighbour in full through an ``EvaluationCache`` (whose
whole-mapping ``latency`` / ``failure_probability`` are bit-identical
to the plain metric functions, property-tested in
``tests/core/test_metrics_cache.py``).  Slow, but it states the descent
with no move decoding, no interval-replacement scoring and no
failure-probability pre-check, so the solvers are tested (and
benchmarked) against it.
"""

from __future__ import annotations

import random
from typing import Any

from repro.algorithms.heuristics.neighborhood import neighbors, random_mapping
from repro.algorithms.heuristics.single_interval import single_interval_mappings
from repro.algorithms.heuristics.warm import decode_warm_starts
from repro.algorithms.result import SolverResult, threshold_bound
from repro.core.metrics import EvaluationCache, failure_probability, latency
from repro.core.serialization import mapping_to_dict
from repro.exceptions import InfeasibleProblemError

__all__ = [
    "reference_local_search_minimize_fp",
    "reference_local_search_minimize_latency",
]


def _descend(platform, start, rank, rng, max_steps, trace, recorder):
    current = start
    current_rank = rank(current)
    steps = 0
    while steps < max_steps:
        steps += 1
        moves = list(neighbors(current, platform.size))
        rng.shuffle(moves)
        for cand in moves:
            cand_rank = rank(cand)
            if cand_rank < current_rank:
                current, current_rank = cand, cand_rank
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
    application,
    platform,
    rank,
    *,
    restarts,
    max_steps,
    seed,
    trace,
    warm_starts,
    recorder,
):
    rng = recorder.rng(seed) if recorder is not None else random.Random(seed)
    warm = sorted(single_interval_mappings(application, platform), key=rank)
    starts = [*warm_starts, *warm[:3]]
    while len(starts) < max(restarts, 1):
        starts.append(random_mapping(application.num_stages, platform.size, rng))

    best = best_rank = None
    total_steps = 0
    for index, start in enumerate(starts):
        if recorder is not None:
            recorder.emit("restart", index=index, start=mapping_to_dict(start))
        result, result_rank, steps = _descend(
            platform, start, rank, rng, max_steps, trace, recorder
        )
        total_steps += steps
        if recorder is not None:
            recorder.emit(
                "descent_end", index=index, steps=steps, rank=result_rank
            )
        if best_rank is None or result_rank < best_rank:
            best, best_rank = result, result_rank
    return best, best_rank, total_steps


def reference_local_search_minimize_fp(
    application,
    platform,
    latency_threshold,
    *,
    restarts: int = 8,
    max_steps: int = 200,
    seed: int | None = 0,
    tolerance: float = 1e-9,
    trace=None,
    warm_starts=None,
    recorder: Any = None,
) -> SolverResult:
    warm = decode_warm_starts(warm_starts, application, platform)
    bound = threshold_bound(latency_threshold, tolerance)
    cache = EvaluationCache(application, platform)
    if recorder is not None:
        recorder.observe_cache(cache)

    def rank(mapping):
        lat = cache.latency(mapping)
        fp = cache.failure_probability(mapping)
        if lat <= bound:
            return (0, fp, lat)
        return (1, lat - latency_threshold, fp)

    best, best_rank, steps = _solve(
        application,
        platform,
        rank,
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


def reference_local_search_minimize_latency(
    application,
    platform,
    fp_threshold,
    *,
    restarts: int = 8,
    max_steps: int = 200,
    seed: int | None = 0,
    tolerance: float = 1e-9,
    trace=None,
    warm_starts=None,
    recorder: Any = None,
) -> SolverResult:
    warm = decode_warm_starts(warm_starts, application, platform)
    bound = threshold_bound(fp_threshold, tolerance)
    cache = EvaluationCache(application, platform)
    if recorder is not None:
        recorder.observe_cache(cache)

    def rank(mapping):
        lat = cache.latency(mapping)
        fp = cache.failure_probability(mapping)
        if fp <= bound:
            return (0, lat, fp)
        return (1, fp - fp_threshold, lat)

    best, best_rank, steps = _solve(
        application,
        platform,
        rank,
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
