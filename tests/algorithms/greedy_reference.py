"""Reference oracle for the greedy split-and-replicate heuristic.

The per-trial scalar loop the greedy solvers ran before they scored
enrolment trials through ``EvaluationCache.objectives_with``: every
``(processor, interval)`` trial is built as a full mapping and evaluated
from scratch with the plain :func:`repro.core.metrics.latency` and
:func:`repro.core.metrics.failure_probability`.  Slow, but it states
the decision rule with nothing between it and the closed forms, so the
cached solvers are tested (and benchmarked) against it.
"""

from __future__ import annotations

from typing import Any

from repro.algorithms.heuristics.greedy import (
    _seed_allocations,
    _seed_allocations_reliable,
    balanced_partition,
)
from repro.algorithms.heuristics.warm import decode_warm_starts
from repro.algorithms.result import SolverResult
from repro.core.mapping import IntervalMapping
from repro.core.metrics import evaluate, failure_probability, latency
from repro.core.serialization import mapping_to_dict
from repro.exceptions import InfeasibleProblemError

__all__ = ["reference_greedy_minimize_fp", "reference_greedy_minimize_latency"]


def _mapping(intervals, allocations):
    return IntervalMapping(intervals, [frozenset(a) for a in allocations])


def _warm_results(application, platform, warm_starts, solver):
    return [
        SolverResult(
            mapping=mapping,
            latency=latency(mapping, application, platform),
            failure_probability=failure_probability(mapping, platform),
            solver=solver,
            optimal=False,
            extras={"intervals": mapping.num_intervals, "seed": "warm_start"},
        )
        for mapping in decode_warm_starts(warm_starts, application, platform)
    ]


def reference_greedy_minimize_fp(
    application,
    platform,
    latency_threshold: float,
    *,
    tolerance: float = 1e-9,
    warm_starts=None,
    recorder: Any = None,
) -> SolverResult:
    """Per-trial scalar form of ``greedy_minimize_fp``."""
    slack = tolerance * max(1.0, abs(latency_threshold))
    n, m = application.num_stages, platform.size
    best = None
    for cand in _warm_results(
        application, platform, warm_starts, "greedy-split-replicate-min-fp"
    ):
        if cand.latency > latency_threshold + slack:
            continue
        if best is None or (
            (cand.failure_probability, cand.latency)
            < (best.failure_probability, best.latency)
        ):
            best = cand

    for p in range(1, min(n, m) + 1):
        intervals = balanced_partition(application, p)
        if len(intervals) < p:
            continue
        for seed_fn in (_seed_allocations, _seed_allocations_reliable):
            allocations = seed_fn(application, platform, intervals)
            mapping = _mapping(intervals, allocations)
            lat = latency(mapping, application, platform)
            if lat > latency_threshold + slack:
                continue
            if recorder is not None:
                recorder.emit(
                    "construct",
                    p=p,
                    seed=seed_fn.__name__,
                    mapping=mapping_to_dict(mapping),
                    latency=lat,
                )
            used = set().union(*allocations)
            unused = [u for u in range(1, m + 1) if u not in used]
            improved = True
            while improved and unused:
                improved = False
                current_fp = failure_probability(mapping, platform)
                best_gain = 0.0
                best_choice = None
                for u in unused:
                    for j in range(p):
                        trial_allocs = [set(a) for a in allocations]
                        trial_allocs[j].add(u)
                        trial = _mapping(intervals, trial_allocs)
                        trial_lat = latency(trial, application, platform)
                        if trial_lat > latency_threshold + slack:
                            continue
                        gain = current_fp - failure_probability(trial, platform)
                        if gain > best_gain + 1e-15:
                            best_gain = gain
                            best_choice = (u, j, trial, trial_lat)
                if best_choice is not None:
                    u, j, mapping, lat = best_choice
                    allocations[j].add(u)
                    unused.remove(u)
                    improved = True
                    if recorder is not None:
                        recorder.emit(
                            "enroll",
                            p=p,
                            seed=seed_fn.__name__,
                            u=u,
                            j=j,
                            gain=best_gain,
                            latency=lat,
                        )
            ev = evaluate(mapping, application, platform)
            if recorder is not None:
                recorder.emit(
                    "candidate",
                    p=p,
                    seed=seed_fn.__name__,
                    latency=ev.latency,
                    fp=ev.failure_probability,
                )
            cand = SolverResult(
                mapping=mapping,
                latency=ev.latency,
                failure_probability=ev.failure_probability,
                solver="greedy-split-replicate-min-fp",
                optimal=False,
                extras={"intervals": p, "seed": seed_fn.__name__},
            )
            if best is None or (
                (cand.failure_probability, cand.latency)
                < (best.failure_probability, best.latency)
            ):
                best = cand

    if best is None:
        raise InfeasibleProblemError(
            "greedy construction found no mapping under the latency "
            f"threshold {latency_threshold}"
        )
    return best


def reference_greedy_minimize_latency(
    application,
    platform,
    fp_threshold: float,
    *,
    tolerance: float = 1e-9,
    warm_starts=None,
    recorder: Any = None,
) -> SolverResult:
    """Per-trial scalar form of ``greedy_minimize_latency``."""
    slack = tolerance * max(1.0, abs(fp_threshold))
    n, m = application.num_stages, platform.size
    best = None
    for cand in _warm_results(
        application, platform, warm_starts, "greedy-split-replicate-min-latency"
    ):
        if cand.failure_probability > fp_threshold + slack:
            continue
        if best is None or (
            (cand.latency, cand.failure_probability)
            < (best.latency, best.failure_probability)
        ):
            best = cand

    for p in range(1, min(n, m) + 1):
        intervals = balanced_partition(application, p)
        if len(intervals) < p:
            continue
        for seed_fn in (_seed_allocations, _seed_allocations_reliable):
            allocations = seed_fn(application, platform, intervals)
            mapping = _mapping(intervals, allocations)
            if recorder is not None:
                recorder.emit(
                    "construct",
                    p=p,
                    seed=seed_fn.__name__,
                    mapping=mapping_to_dict(mapping),
                    latency=latency(mapping, application, platform),
                )
            used = set().union(*allocations)
            unused = [u for u in range(1, m + 1) if u not in used]
            while (
                failure_probability(mapping, platform) > fp_threshold + slack
                and unused
            ):
                current_fp = failure_probability(mapping, platform)
                current_lat = latency(mapping, application, platform)
                best_score = float("inf")
                best_choice = None
                for u in unused:
                    for j in range(p):
                        trial_allocs = [set(a) for a in allocations]
                        trial_allocs[j].add(u)
                        trial = _mapping(intervals, trial_allocs)
                        fp_gain = current_fp - failure_probability(trial, platform)
                        if fp_gain <= 0:
                            continue
                        lat_cost = max(
                            latency(trial, application, platform) - current_lat,
                            0.0,
                        )
                        score = lat_cost / fp_gain
                        if score < best_score:
                            best_score = score
                            best_choice = (u, j, trial)
                if best_choice is None:
                    break
                u, j, mapping = best_choice
                allocations[j].add(u)
                unused.remove(u)
                if recorder is not None:
                    recorder.emit(
                        "enroll",
                        p=p,
                        seed=seed_fn.__name__,
                        u=u,
                        j=j,
                        score=best_score,
                    )
            fp = failure_probability(mapping, platform)
            if fp > fp_threshold + slack:
                continue
            lat = latency(mapping, application, platform)
            if recorder is not None:
                recorder.emit(
                    "candidate",
                    p=p,
                    seed=seed_fn.__name__,
                    latency=lat,
                    fp=fp,
                )
            cand = SolverResult(
                mapping=mapping,
                latency=lat,
                failure_probability=fp,
                solver="greedy-split-replicate-min-latency",
                optimal=False,
                extras={"intervals": p, "seed": seed_fn.__name__},
            )
            if best is None or (
                (cand.latency, cand.failure_probability)
                < (best.latency, best.failure_probability)
            ):
                best = cand

    if best is None:
        raise InfeasibleProblemError(
            "greedy construction found no mapping under the FP threshold "
            f"{fp_threshold}"
        )
    return best
