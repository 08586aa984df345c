"""Pareto-frontier computation and comparison utilities.

The bi-criteria framing of the paper ("minimise FP under a latency bound,
or the converse") is equivalent to tracing the Pareto frontier of the
(latency, FP) objective plane.  This module builds frontiers three ways —
exhaustively (exact, small instances), from the single-interval grid
(exact on Communication Homogeneous platforms *within* the Lemma 1
shape), and by threshold sweeps over any heuristic — and quantifies the
gaps between them (experiments E11 and E14).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from ..algorithms.bicriteria.exhaustive import exhaustive_pareto_front
from ..algorithms.heuristics.single_interval import single_interval_candidates
from ..algorithms.result import SolverResult
from ..core.application import PipelineApplication
from ..core.pareto import BiCriteriaPoint, pareto_front
from ..core.platform import Platform
from ..exceptions import InfeasibleProblemError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.store import ResultStore

__all__ = [
    "exact_frontier",
    "single_interval_frontier",
    "sweep_frontier",
    "frontier_fp_gap",
    "latency_grid",
]

MinFpSolver = Callable[[PipelineApplication, Platform, float], SolverResult]


def exact_frontier(
    application: PipelineApplication,
    platform: Platform,
    *,
    search_cap: int = 5_000_000,
) -> list[BiCriteriaPoint]:
    """Exact Pareto frontier by exhaustive enumeration (small instances)."""
    return exhaustive_pareto_front(
        application, platform, search_cap=search_cap
    )


def single_interval_frontier(
    application: PipelineApplication, platform: Platform
) -> list[BiCriteriaPoint]:
    """Frontier restricted to single-interval mappings (Lemma 1 shape).

    Exact within that restriction on Communication Homogeneous
    platforms; the distance to :func:`exact_frontier` quantifies how much
    multi-interval structure buys on Failure Heterogeneous instances
    (the Figure 5 phenomenon).
    """
    points = [
        BiCriteriaPoint(r.latency, r.failure_probability, payload=r.mapping)
        for r in single_interval_candidates(application, platform)
    ]
    return pareto_front(points)


def latency_grid(
    application: PipelineApplication,
    platform: Platform,
    *,
    num_points: int = 20,
) -> list[float]:
    """A sensible grid of latency thresholds for frontier sweeps.

    Spans from the fastest single-processor mapping to the slowest
    single-interval candidate (full replication), inclusive.
    """
    candidates = [
        r.latency for r in single_interval_candidates(application, platform)
    ]
    lo, hi = min(candidates), max(candidates)
    if hi <= lo:
        return [lo]
    step = (hi - lo) / max(num_points - 1, 1)
    # pin the top point to exactly hi: accumulating lo + (n-1)*step can
    # land a float ulp below it, silently making the slowest
    # single-interval candidate infeasible at the top threshold
    grid = [lo + i * step for i in range(num_points - 1)] + [hi]
    deduped: list[float] = []
    for value in grid:
        if not deduped or value > deduped[-1]:
            deduped.append(value)
    return deduped


def sweep_frontier(
    application: PipelineApplication,
    platform: Platform,
    solver: MinFpSolver | str,
    thresholds: Sequence[float] | None = None,
    *,
    num_points: int = 20,
    workers: int | None = None,
    seed: int | None = None,
    store: "ResultStore | None" = None,
    warm_start: str = "off",
) -> list[BiCriteriaPoint]:
    """Heuristic frontier: sweep latency thresholds through a min-FP solver.

    A thin wrapper over the unified sweep engine
    (:mod:`repro.engine.sweeps`).  ``solver`` is either a callable
    ``(application, platform, threshold) -> SolverResult`` or the name
    of a registered engine solver (see :mod:`repro.engine.registry`);
    names additionally unlock parallel sweeps — with ``workers`` the
    thresholds are sharded across processes by the engine's batch
    executor, with results identical to the serial sweep — result reuse
    via a :class:`~repro.engine.store.ResultStore` (``store``) and
    warm-start chaining (``warm_start="chain"``; monotone grids,
    warm-startable solvers).  Thresholds where the solver reports
    infeasibility are skipped; duplicate grid points are solved once.

    Exhaustive sweeps keep their one-pass fast path: when the solver is
    the exhaustive min-FP solver (by name or callable), numpy is
    available and neither a store nor worker sharding is requested, the
    mapping space is enumerated and bulk-evaluated **once** for the
    whole threshold grid via
    :func:`repro.algorithms.bicriteria.exhaustive_sweep_min_fp`, instead
    of once per threshold — per-threshold results are identical.
    """
    from ..algorithms.bicriteria.exhaustive import exhaustive_minimize_fp

    if solver is exhaustive_minimize_fp:
        solver = "exhaustive-min-fp"
    if isinstance(solver, str):
        from ..engine.sweeps import SweepPlan, iter_sweep

        plan = SweepPlan.single(
            application,
            platform,
            solver,
            thresholds,
            num_points=num_points,
            warm_start=warm_start,
        )
        # a single-cell plan: the first streamed cell is the whole sweep
        # (iter_sweep compiles the plan to one task graph; see
        # repro.engine.sweeps)
        cell = next(
            iter(
                iter_sweep(
                    plan,
                    workers=workers,
                    seed=seed,
                    store=store,
                    in_order=True,
                )
            )
        )
        return cell.frontier(strict=True)

    if workers is not None and workers > 1:
        raise ValueError(
            "parallel sweeps need a registered solver name, not a "
            "bare callable (the engine must be able to dispatch the "
            "solver inside worker processes)"
        )
    if thresholds is None:
        thresholds = latency_grid(
            application, platform, num_points=num_points
        )
    results: list[SolverResult] = []
    for threshold in thresholds:
        try:
            results.append(solver(application, platform, threshold))
        except InfeasibleProblemError:
            continue
    points = [
        BiCriteriaPoint(
            result.latency, result.failure_probability, payload=result.mapping
        )
        for result in results
    ]
    return pareto_front(points)


def frontier_fp_gap(
    reference: Iterable[BiCriteriaPoint],
    candidate: Iterable[BiCriteriaPoint],
) -> dict[str, float]:
    """Quantify how much worse ``candidate`` is than ``reference``.

    At every reference latency, compare the best FP each frontier attains
    within that budget.  Returns the mean and max *absolute* FP excess
    plus the fraction of budgets where the candidate matches the
    reference within 1e-12 (``match_rate``).  An empty candidate at some
    budget counts as excess 1.0 (the worst possible FP).
    """
    ref = sorted(reference, key=lambda p: p.latency)
    cand = sorted(candidate, key=lambda p: p.latency)
    if not ref:
        raise ValueError("reference frontier is empty")
    excesses: list[float] = []
    matches = 0
    for point in ref:
        budget = point.latency * (1 + 1e-12)
        best_ref = min(
            p.failure_probability for p in ref if p.latency <= budget
        )
        cand_feasible = [
            p.failure_probability for p in cand if p.latency <= budget
        ]
        best_cand = min(cand_feasible) if cand_feasible else 1.0
        excess = max(0.0, best_cand - best_ref)
        excesses.append(excess)
        if excess <= 1e-12:
            matches += 1
    return {
        "mean_fp_excess": sum(excesses) / len(excesses),
        "max_fp_excess": max(excesses),
        "match_rate": matches / len(excesses),
        "points": float(len(excesses)),
    }
