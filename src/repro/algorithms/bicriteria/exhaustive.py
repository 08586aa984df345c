"""Exhaustive exact bi-criteria solver (the ground-truth baseline).

Enumerates *every* interval mapping with replication — the complete search
space of the paper's optimisation problem — and answers the two threshold
queries plus the full Pareto front.  Exponential, of course: Theorem 7
proves the Fully Heterogeneous decision problem NP-hard, and Section 4.4
conjectures the Communication Homogeneous / Failure Heterogeneous case
NP-hard too.  The solver guards the instance size and is used to

* certify Algorithms 1-4 on their platform classes,
* quantify heuristic optimality gaps (experiment E11),
* resolve the 2-PARTITION gadget instances (experiment E7).
"""

from __future__ import annotations

from math import comb
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from ..result import SolverResult, threshold_bound
from ...core.application import PipelineApplication
from ...core.enumeration import enumerate_interval_mappings, iter_mapping_blocks
from ...core.mapping import IntervalMapping
from ...core.metrics import EvaluationCache, MappingEvaluation, evaluate
from ...core.metrics_bulk import (
    BulkEvaluator,
    nondominated_mask,
    resolve_use_bulk,
)
from ...core.pareto import BiCriteriaPoint, pareto_front
from ...core.platform import Platform
from ...core.serialization import mapping_to_dict
from ...exceptions import InfeasibleProblemError, SolverError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

__all__ = [
    "count_interval_mappings",
    "enumerate_evaluations",
    "exhaustive_pareto_front",
    "exhaustive_minimize_fp",
    "exhaustive_minimize_latency",
    "exhaustive_sweep_min_fp",
    "exhaustive_best",
]

#: Default cap on the number of mappings the solver will enumerate.
DEFAULT_SEARCH_CAP = 5_000_000

#: Default number of mappings per vectorized evaluation block.
DEFAULT_BLOCK_SIZE = 4096


def _stirling2_row(k: int) -> list[int]:
    """Stirling numbers of the second kind ``S(k, p)`` for ``p = 0..k``."""
    row = [1] + [0] * k  # S(0,0)=1
    for i in range(1, k + 1):
        new = [0] * (k + 1)
        for p in range(1, i + 1):
            new[p] = p * row[p] + row[p - 1]
        row = new
    return row


def count_interval_mappings(num_stages: int, num_processors: int) -> int:
    """Exact size of the interval-mapping search space.

    ``sum_p C(n-1, p-1) * sum_{k>=p} C(m, k) * p! * S(k, p)`` — choose the
    partition, choose which ``k`` processors participate, split them into
    ``p`` ordered non-empty replication sets.
    """
    n, m = num_stages, num_processors
    total = 0
    fact = [1] * (m + 1)
    for i in range(1, m + 1):
        fact[i] = fact[i - 1] * i
    stirling = [_stirling2_row(k) for k in range(m + 1)]
    for p in range(1, min(n, m) + 1):
        partitions = comb(n - 1, p - 1)
        assignments = 0
        for k in range(p, m + 1):
            assignments += comb(m, k) * fact[p] * stirling[k][p]
        total += partitions * assignments
    return total


def enumerate_evaluations(
    application: PipelineApplication,
    platform: Platform,
    *,
    max_replication: int | None = None,
    one_port: bool = True,
    search_cap: int = DEFAULT_SEARCH_CAP,
    cache: EvaluationCache | None = None,
) -> Iterator[MappingEvaluation]:
    """Evaluate every interval mapping of the instance.

    Evaluation goes through an :class:`~repro.core.metrics.EvaluationCache`
    (results are bit-identical to :func:`repro.core.metrics.evaluate`):
    consecutive mappings share almost all per-interval terms, which makes
    the sweep severalfold faster than full re-evaluation.  Pass ``cache``
    to reuse terms across calls on the same instance.

    Raises
    ------
    SolverError
        If the full search space exceeds ``search_cap`` (the cap is
        checked against the *unrestricted* count; ``max_replication``
        only prunes within the run).
    """
    _check_search_cap(application, platform, search_cap)
    if cache is None:
        cache = EvaluationCache(application, platform, one_port=one_port)
    elif (
        cache.application is not application
        or cache.platform is not platform
        or cache.one_port != one_port
    ):
        raise SolverError(
            "enumerate_evaluations was handed a cache built for a "
            "different instance or port model"
        )
    for mapping in enumerate_interval_mappings(
        application.num_stages,
        platform.size,
        max_replication=max_replication,
    ):
        yield cache.evaluate(mapping)


def _check_search_cap(
    application: PipelineApplication, platform: Platform, search_cap: int
) -> int:
    space = count_interval_mappings(application.num_stages, platform.size)
    if space > search_cap:
        raise SolverError(
            f"instance has {space} interval mappings, above the cap of "
            f"{search_cap}; use the heuristics"
        )
    return space


def exhaustive_pareto_front(
    application: PipelineApplication,
    platform: Platform,
    *,
    one_port: bool = True,
    search_cap: int = DEFAULT_SEARCH_CAP,
    use_bulk: bool | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    bulk_shards: int | None = None,
    bulk_backend: str | None = None,
) -> list[BiCriteriaPoint]:
    """The exact Pareto front of (latency, FP) over all interval mappings.

    With numpy available (``use_bulk=None``/``True``) the space is
    evaluated in vectorized blocks: each block is reduced to its
    non-dominated rows in array ops, only those survivors are decoded
    into mappings and re-evaluated through the scalar path, and the
    final front is assembled from the scalar values — so the reported
    numbers stay scalar-exact while the sweep itself is a handful of
    array operations per block (bench E20).  ``bulk_shards`` splits
    each block's rows across threads
    (see :class:`repro.core.metrics_bulk.BulkEvaluator`), bit-identical
    to the single-pass evaluation; ``bulk_backend`` picks the
    evaluator's array engine.
    """
    if not resolve_use_bulk(use_bulk):
        points = [
            BiCriteriaPoint(
                ev.latency, ev.failure_probability, payload=ev.mapping
            )
            for ev in enumerate_evaluations(
                application, platform, one_port=one_port, search_cap=search_cap
            )
        ]
        return pareto_front(points)

    import numpy as np

    _check_search_cap(application, platform, search_cap)
    evaluator = BulkEvaluator(
        application,
        platform,
        one_port=one_port,
        shards=bulk_shards,
        backend=bulk_backend,
    )
    cache = EvaluationCache(application, platform, one_port=one_port)
    survivors: list[BiCriteriaPoint] = []
    for block in iter_mapping_blocks(
        application, platform, block_size=block_size
    ):
        lats, fps = evaluator.evaluate_block(block)
        for i in np.flatnonzero(nondominated_mask(lats, fps)):
            mapping = block.mapping(int(i))
            ev = cache.evaluate(mapping)
            survivors.append(
                BiCriteriaPoint(
                    ev.latency, ev.failure_probability, payload=mapping
                )
            )
    return pareto_front(survivors)


def _best(
    application: PipelineApplication,
    platform: Platform,
    feasible: Callable[[MappingEvaluation], bool],
    key: Callable[[MappingEvaluation], tuple[float, float]],
    solver: str,
    *,
    one_port: bool = True,
    search_cap: int = DEFAULT_SEARCH_CAP,
    recorder: Any = None,
) -> SolverResult:
    best_ev: MappingEvaluation | None = None
    best_key: tuple[float, float] | None = None
    explored = 0
    for ev in enumerate_evaluations(
        application, platform, one_port=one_port, search_cap=search_cap
    ):
        explored += 1
        if not feasible(ev):
            continue
        k = key(ev)
        if best_key is None or k < best_key:
            best_key = k
            best_ev = ev
            if recorder is not None:
                # one event per incumbent improvement: scalar sweeps
                # replay deterministically against each other, but the
                # bulk path confirms winners per block instead, so a
                # cross-path diff compares only the final result
                recorder.emit(
                    "incumbent",
                    explored=explored,
                    key=list(k),
                    mapping=mapping_to_dict(ev.mapping),
                )
    if best_ev is None:
        raise InfeasibleProblemError(
            f"{solver}: no interval mapping satisfies the threshold"
        )
    assert isinstance(best_ev.mapping, IntervalMapping)
    return SolverResult(
        mapping=best_ev.mapping,
        latency=best_ev.latency,
        failure_probability=best_ev.failure_probability,
        solver=solver,
        optimal=True,
        extras={"explored": explored},
    )


def _block_argbest(
    feasible: "np.ndarray",
    primary: "np.ndarray",
    secondary: "np.ndarray",
) -> tuple[int, tuple[float, float]] | None:
    """First row attaining the lexicographic minimum among feasible rows.

    Mirrors the scalar loop's tie breaking: strict improvement on the
    ``(primary, secondary)`` key, first-in-enumeration-order wins.
    """
    import numpy as np

    if not bool(feasible.any()):
        return None
    p = np.where(feasible, primary, np.inf)
    p_min = p.min()
    tied = p == p_min
    s = np.where(tied, secondary, np.inf)
    s_min = s.min()
    row = int(np.argmax(tied & (s == s_min)))
    return row, (float(p_min), float(s_min))


def _best_bulk(
    application: PipelineApplication,
    platform: Platform,
    vec_feasible: Callable[["np.ndarray", "np.ndarray"], "np.ndarray"],
    vec_key: Callable[
        ["np.ndarray", "np.ndarray"], tuple["np.ndarray", "np.ndarray"]
    ],
    solver: str,
    *,
    one_port: bool = True,
    search_cap: int = DEFAULT_SEARCH_CAP,
    block_size: int = DEFAULT_BLOCK_SIZE,
    bulk_shards: int | None = None,
    bulk_backend: str | None = None,
    recorder: Any = None,
) -> SolverResult:
    """Vectorized counterpart of :func:`_best` over mapping blocks.

    The winning row is decoded and re-evaluated through the scalar
    :func:`repro.core.metrics.evaluate`, so the reported objectives are
    identical to the scalar solver's (selection itself happens on bulk
    values, which agree within the documented tolerance).
    """
    explored = _check_search_cap(application, platform, search_cap)
    evaluator = BulkEvaluator(
        application,
        platform,
        one_port=one_port,
        shards=bulk_shards,
        backend=bulk_backend,
    )
    best_key: tuple[float, float] | None = None
    best_mapping: IntervalMapping | None = None
    for block in iter_mapping_blocks(
        application, platform, block_size=block_size
    ):
        lats, fps = evaluator.evaluate_block(block)
        primary, secondary = vec_key(lats, fps)
        found = _block_argbest(vec_feasible(lats, fps), primary, secondary)
        if found is None:
            continue
        row, key = found
        if best_key is None or key < best_key:
            best_key = key
            best_mapping = block.mapping(row)
            if recorder is not None:
                # block-level winner confirmation (the bulk analogue of
                # the scalar path's per-mapping incumbent events)
                recorder.emit(
                    "block_winner",
                    row=row,
                    key=list(key),
                    mapping=mapping_to_dict(best_mapping),
                )
    if best_mapping is None:
        raise InfeasibleProblemError(
            f"{solver}: no interval mapping satisfies the threshold"
        )
    ev = evaluate(best_mapping, application, platform, one_port=one_port)
    return SolverResult(
        mapping=best_mapping,
        latency=ev.latency,
        failure_probability=ev.failure_probability,
        solver=solver,
        optimal=True,
        extras={"explored": explored, "bulk": True},
    )


def exhaustive_minimize_fp(
    application: PipelineApplication,
    platform: Platform,
    latency_threshold: float,
    *,
    one_port: bool = True,
    search_cap: int = DEFAULT_SEARCH_CAP,
    tolerance: float = 1e-9,
    use_bulk: bool | None = None,
    bulk_shards: int | None = None,
    bulk_backend: str | None = None,
    recorder: Any = None,
) -> SolverResult:
    """Exact minimum FP subject to ``latency <= latency_threshold``.

    Ties on FP are broken by lower latency.  ``use_bulk`` selects the
    vectorized block path (``None`` = automatic when numpy is present);
    the winning mapping's reported objectives are always scalar-exact.
    ``bulk_shards`` splits each block's rows across threads on the bulk
    path (bit-identical results; ignored on the scalar path) and
    ``bulk_backend`` picks its array engine (``"auto"`` / ``"jit"`` /
    ``"numpy"``, see :func:`repro.core.metrics_bulk.resolve_backend`).
    ``recorder`` (a :class:`repro.engine.recorder.RunRecorder`) captures
    every incumbent improvement (scalar path) or block-level winner
    confirmation (bulk path); the two vocabularies differ by design, so
    record/replay comparisons are meaningful within one path.
    """
    bound = threshold_bound(latency_threshold, tolerance)
    if resolve_use_bulk(use_bulk):
        return _best_bulk(
            application,
            platform,
            vec_feasible=lambda lats, fps: lats <= bound,
            vec_key=lambda lats, fps: (fps, lats),
            solver="exhaustive-min-fp",
            one_port=one_port,
            search_cap=search_cap,
            bulk_shards=bulk_shards,
            bulk_backend=bulk_backend,
            recorder=recorder,
        )
    return _best(
        application,
        platform,
        feasible=lambda ev: ev.latency <= bound,
        key=lambda ev: (ev.failure_probability, ev.latency),
        solver="exhaustive-min-fp",
        one_port=one_port,
        search_cap=search_cap,
        recorder=recorder,
    )


def exhaustive_minimize_latency(
    application: PipelineApplication,
    platform: Platform,
    fp_threshold: float,
    *,
    one_port: bool = True,
    search_cap: int = DEFAULT_SEARCH_CAP,
    tolerance: float = 1e-9,
    use_bulk: bool | None = None,
    bulk_shards: int | None = None,
    bulk_backend: str | None = None,
    recorder: Any = None,
) -> SolverResult:
    """Exact minimum latency subject to ``FP <= fp_threshold``.

    Ties on latency are broken by lower FP.  ``use_bulk`` selects the
    vectorized block path (``None`` = automatic when numpy is present);
    ``bulk_shards``/``bulk_backend`` as in
    :func:`exhaustive_minimize_fp`.
    ``recorder`` behaves as in :func:`exhaustive_minimize_fp`.
    """
    bound = threshold_bound(fp_threshold, tolerance)
    if resolve_use_bulk(use_bulk):
        return _best_bulk(
            application,
            platform,
            vec_feasible=lambda lats, fps: fps <= bound,
            vec_key=lambda lats, fps: (lats, fps),
            solver="exhaustive-min-latency",
            one_port=one_port,
            search_cap=search_cap,
            bulk_shards=bulk_shards,
            bulk_backend=bulk_backend,
            recorder=recorder,
        )
    return _best(
        application,
        platform,
        feasible=lambda ev: ev.failure_probability <= bound,
        key=lambda ev: (ev.latency, ev.failure_probability),
        solver="exhaustive-min-latency",
        one_port=one_port,
        search_cap=search_cap,
        recorder=recorder,
    )


def exhaustive_sweep_min_fp(
    application: PipelineApplication,
    platform: Platform,
    thresholds: Sequence[float],
    *,
    one_port: bool = True,
    search_cap: int = DEFAULT_SEARCH_CAP,
    tolerance: float = 1e-9,
    use_bulk: bool | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    bulk_shards: int | None = None,
    bulk_backend: str | None = None,
) -> list[SolverResult | None]:
    """Answer many 'min FP s.t. latency <= L' queries in one enumeration.

    Returns one :class:`SolverResult` per threshold (``None`` where the
    threshold is infeasible), each identical to what
    :func:`exhaustive_minimize_fp` returns for that threshold — but the
    mapping space is enumerated and evaluated **once** for the whole
    grid instead of once per threshold, which is what makes dense
    frontier sweeps tractable (:func:`repro.analysis.frontier.sweep_frontier`
    routes exhaustive sweeps here).  ``bulk_shards`` splits each
    block's rows across threads on the bulk path (bit-identical);
    ``bulk_backend`` picks the evaluator's array engine.
    """
    thresholds = list(thresholds)
    if not thresholds:
        return []
    if not resolve_use_bulk(use_bulk):
        results: list[SolverResult | None] = []
        for threshold in thresholds:
            try:
                results.append(
                    exhaustive_minimize_fp(
                        application,
                        platform,
                        threshold,
                        one_port=one_port,
                        search_cap=search_cap,
                        tolerance=tolerance,
                        use_bulk=False,
                    )
                )
            except InfeasibleProblemError:
                results.append(None)
        return results

    explored = _check_search_cap(application, platform, search_cap)
    evaluator = BulkEvaluator(
        application,
        platform,
        one_port=one_port,
        shards=bulk_shards,
        backend=bulk_backend,
    )
    bounds = [threshold_bound(t, tolerance) for t in thresholds]
    best_keys: list[tuple[float, float] | None] = [None] * len(thresholds)
    best_mappings: list[IntervalMapping | None] = [None] * len(thresholds)
    for block in iter_mapping_blocks(
        application, platform, block_size=block_size
    ):
        lats, fps = evaluator.evaluate_block(block)
        for t, bound in enumerate(bounds):
            found = _block_argbest(lats <= bound, fps, lats)
            if found is None:
                continue
            row, key = found
            if best_keys[t] is None or key < best_keys[t]:
                best_keys[t] = key
                best_mappings[t] = block.mapping(row)
    results = []
    for mapping in best_mappings:
        if mapping is None:
            results.append(None)
            continue
        ev = evaluate(mapping, application, platform, one_port=one_port)
        results.append(
            SolverResult(
                mapping=mapping,
                latency=ev.latency,
                failure_probability=ev.failure_probability,
                solver="exhaustive-min-fp",
                optimal=True,
                extras={"explored": explored, "bulk": True},
            )
        )
    return results


def exhaustive_best(
    application: PipelineApplication,
    platform: Platform,
    objective: Callable[[MappingEvaluation], float],
    *,
    one_port: bool = True,
    search_cap: int = DEFAULT_SEARCH_CAP,
) -> SolverResult:
    """Exact optimum of an arbitrary scalarised objective (research aid)."""
    return _best(
        application,
        platform,
        feasible=lambda ev: True,
        key=lambda ev: (objective(ev), ev.latency),
        solver="exhaustive-scalarised",
        one_port=one_port,
        search_cap=search_cap,
    )
