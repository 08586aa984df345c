"""Exact optimisation restricted to single-interval mappings.

On Communication Homogeneous platforms a single-interval mapping is fully
described by its replica set ``A``; latency is
``|A|·delta_0/b + W/min_{u in A} s_u + delta_n/b`` and FP is
``prod_{u in A} fp_u``.  For a fixed cardinality ``k`` and a fixed speed
floor ``sigma``, the FP-optimal choice is the ``k`` most reliable
processors among those with ``s_u >= sigma`` — so sweeping the
``O(m^2)`` grid of ``(k, sigma)`` pairs finds the *exact* optimum over
single-interval mappings for both threshold queries.

This matters because on Failure Heterogeneous platforms the true optimum
may need several intervals (paper Figure 5): the gap between this
restricted exact solver and the multi-interval heuristics/exhaustive
solver *is* the phenomenon the paper's Section 3 illustrates, and
experiment E11 measures it.

On Fully Heterogeneous platforms the same sweep runs with the eq. (2)
metric; the reliability-greedy choice per ``(k, sigma)`` cell is then a
heuristic (link costs may favour other replicas), flagged accordingly.

The grid holds at most ``m(m+1)/2`` candidates, so a solve evaluates
each one through the plain metric functions; no numpy is needed.
"""

from __future__ import annotations

from typing import Any

from ..result import SolverResult, threshold_bound
from ...core.application import PipelineApplication
from ...core.mapping import IntervalMapping
from ...core.metrics import failure_probability, latency
from ...core.platform import Platform
from ...core.serialization import mapping_to_dict
from ...exceptions import InfeasibleProblemError

__all__ = [
    "single_interval_minimize_fp",
    "single_interval_minimize_latency",
    "single_interval_candidates",
    "single_interval_replica_sets",
    "single_interval_mappings",
]


def single_interval_replica_sets(
    platform: Platform,
) -> list[tuple[frozenset[int], int, float]]:
    """The deduplicated ``(replica set, k, speed floor)`` candidate grid.

    The raw material of :func:`single_interval_candidates`, exposed
    separately so callers that only need the *pool* (the warm starts of
    local search and annealing) skip the per-candidate evaluations.
    Order is deterministic: speed floors descending, then cardinality
    ascending, first occurrence of each distinct set kept.
    """
    speed_floors = sorted({p.speed for p in platform.processors}, reverse=True)
    seen: set[frozenset[int]] = set()
    grid: list[tuple[frozenset[int], int, float]] = []
    for sigma in speed_floors:
        eligible = [p for p in platform.processors if p.speed >= sigma]
        eligible.sort(key=lambda p: (p.failure_probability, p.index))
        for k in range(1, len(eligible) + 1):
            procs = frozenset(p.index for p in eligible[:k])
            if procs in seen:
                continue
            seen.add(procs)
            grid.append((procs, k, sigma))
    return grid


def single_interval_mappings(
    application: PipelineApplication, platform: Platform
) -> list[IntervalMapping]:
    """The candidate grid as mappings only (no scalar evaluation).

    Same order as :func:`single_interval_candidates`; this is what the
    local search and annealing warm starts consume — they re-rank the
    mappings through their own cached metrics anyway, so evaluating
    them here would be pure waste.
    """
    n = application.num_stages
    return [
        IntervalMapping.single_interval(n, procs)
        for procs, _, _ in single_interval_replica_sets(platform)
    ]


def single_interval_candidates(
    application: PipelineApplication, platform: Platform
) -> list[SolverResult]:
    """Evaluate the ``(k, sigma)`` candidate grid of single-interval mappings.

    Returns one result per candidate replica set (duplicates pruned).
    Exact coverage of the single-interval Pareto set on Communication
    Homogeneous platforms; heuristic coverage otherwise.
    """
    n = application.num_stages
    results: list[SolverResult] = []
    for procs, k, sigma in single_interval_replica_sets(platform):
        mapping = IntervalMapping.single_interval(n, procs)
        results.append(
            SolverResult(
                mapping=mapping,
                latency=latency(mapping, application, platform),
                failure_probability=failure_probability(mapping, platform),
                solver="single-interval-grid",
                optimal=False,
                extras={"k": k, "speed_floor": sigma},
            )
        )
    return results


def single_interval_minimize_fp(
    application: PipelineApplication,
    platform: Platform,
    latency_threshold: float,
    *,
    tolerance: float = 1e-9,
    recorder: Any = None,
) -> SolverResult:
    """Best single-interval FP under a latency threshold.

    Exact among single-interval mappings on Communication Homogeneous
    platforms (see module docstring); heuristic on Fully Heterogeneous
    ones.  ``recorder`` (a :class:`repro.engine.recorder.RunRecorder`)
    captures the grid size and the winning candidate.

    Raises
    ------
    InfeasibleProblemError
        If no candidate meets the threshold.
    """
    bound = threshold_bound(latency_threshold, tolerance)
    candidates = single_interval_candidates(application, platform)
    if recorder is not None:
        recorder.emit("grid", candidates=len(candidates))
    best: SolverResult | None = None
    for cand in candidates:
        if cand.latency > bound:
            continue
        if best is None or (
            (cand.failure_probability, cand.latency)
            < (best.failure_probability, best.latency)
        ):
            best = cand
    if best is None:
        raise InfeasibleProblemError(
            "no single-interval mapping meets the latency threshold "
            f"{latency_threshold}"
        )
    if recorder is not None:
        recorder.emit(
            "winner",
            k=best.extras["k"],
            speed_floor=best.extras["speed_floor"],
            latency=best.latency,
            fp=best.failure_probability,
            mapping=mapping_to_dict(best.mapping),
        )
    return SolverResult(
        mapping=best.mapping,
        latency=best.latency,
        failure_probability=best.failure_probability,
        solver="single-interval-min-fp",
        optimal=False,
        extras={
            **best.extras,
            "exact_within_single_interval": platform.is_communication_homogeneous,
        },
    )


def single_interval_minimize_latency(
    application: PipelineApplication,
    platform: Platform,
    fp_threshold: float,
    *,
    tolerance: float = 1e-9,
    recorder: Any = None,
) -> SolverResult:
    """Best single-interval latency under an FP threshold.

    Exactness mirrors :func:`single_interval_minimize_fp`, as does the
    ``recorder`` contract.
    """
    bound = threshold_bound(fp_threshold, tolerance)
    candidates = single_interval_candidates(application, platform)
    if recorder is not None:
        recorder.emit("grid", candidates=len(candidates))
    best: SolverResult | None = None
    for cand in candidates:
        if cand.failure_probability > bound:
            continue
        if best is None or (
            (cand.latency, cand.failure_probability)
            < (best.latency, best.failure_probability)
        ):
            best = cand
    if best is None:
        raise InfeasibleProblemError(
            "no single-interval mapping meets the FP threshold "
            f"{fp_threshold}"
        )
    if recorder is not None:
        recorder.emit(
            "winner",
            k=best.extras["k"],
            speed_floor=best.extras["speed_floor"],
            latency=best.latency,
            fp=best.failure_probability,
            mapping=mapping_to_dict(best.mapping),
        )
    return SolverResult(
        mapping=best.mapping,
        latency=best.latency,
        failure_probability=best.failure_probability,
        solver="single-interval-min-latency",
        optimal=False,
        extras={
            **best.extras,
            "exact_within_single_interval": platform.is_communication_homogeneous,
        },
    )
