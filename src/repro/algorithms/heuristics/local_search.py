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

With numpy present (``use_bulk``) each descent step scores the *whole*
neighbourhood through :class:`~repro.core.metrics_bulk.BulkEvaluator`
in one vectorized call; candidates the bulk scores prove non-improving
(within the conservative prefilter margin of
:mod:`repro.algorithms.heuristics.bulk`) are skipped, and only the
handful of survivors are re-ranked through the exact scalar cache in
the original shuffled order.  Every accept/reject decision is therefore
made on scalar values: the accepted-move sequence and the final result
are bit-identical to the scalar path under the same seed (a
machine-checked property).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Callable

from ..result import SolverResult
from .neighborhood import neighbor_rows, neighbors, random_mapping, row_mapping
from .single_interval import single_interval_mappings
from .warm import WarmStarts, decode_warm_starts
from ...core.application import PipelineApplication
from ...core.mapping import IntervalMapping
from ...core.metrics import EvaluationCache, failure_probability, latency
from ...core.metrics_bulk import BulkEvaluator, resolve_use_bulk
from ...core.platform import Platform
from ...core.serialization import mapping_to_dict
from ...exceptions import InfeasibleProblemError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

__all__ = ["local_search_minimize_fp", "local_search_minimize_latency"]

_Rank = tuple[int, float, float]

#: Conservative bulk prefilter: ``(latencies, fps, current_rank) ->
#: keep mask``.  Must never drop a candidate whose scalar rank improves
#: on ``current_rank`` (see repro.algorithms.heuristics.bulk).
_Prefilter = Callable[["np.ndarray", "np.ndarray", _Rank], "np.ndarray"]


class _BulkNeighborhood:
    """Vectorized neighbourhood scoring for one descent run."""

    def __init__(
        self,
        application: PipelineApplication,
        platform: Platform,
        prefilter: _Prefilter,
        backend: str | None = None,
    ) -> None:
        from .bulk import score_rows

        self._score_rows = score_rows
        self._evaluator = BulkEvaluator(application, platform, backend=backend)
        self._n = application.num_stages
        self._m = platform.size
        self._prefilter = prefilter

    def first_improvement(
        self,
        current: IntervalMapping,
        rank: Callable[[IntervalMapping], _Rank],
        current_rank: _Rank,
        rng: random.Random,
    ) -> tuple[IntervalMapping, _Rank] | None:
        """The first scalar-confirmed improving move, in shuffled order.

        Consumes the rng exactly like the scalar loop (one shuffle of an
        equally long sequence), scores the whole pool in one bulk call,
        and scalar-ranks only prefilter survivors.
        """
        rows = list(neighbor_rows(current, self._m))
        order = list(range(len(rows)))
        rng.shuffle(order)
        if not rows:
            return None
        lats, fps = self._score_rows(self._evaluator, self._n, self._m, rows)
        keep = self._prefilter(lats, fps, current_rank)
        for idx in order:
            if not keep[idx]:
                continue
            cand = row_mapping(rows[idx], self._m)
            cand_rank = rank(cand)
            if cand_rank < current_rank:
                return cand, cand_rank
        return None


def _descend(
    application: PipelineApplication,
    platform: Platform,
    start: IntervalMapping,
    rank: Callable[[IntervalMapping], _Rank],
    rng: random.Random,
    max_steps: int,
    pool: _BulkNeighborhood | None = None,
    trace: list[IntervalMapping] | None = None,
    recorder: Any = None,
) -> tuple[IntervalMapping, _Rank, int]:
    current = start
    current_rank = rank(current)
    steps = 0
    while steps < max_steps:
        steps += 1
        if pool is not None:
            found = pool.first_improvement(current, rank, current_rank, rng)
            if found is None:
                break
            current, current_rank = found
            if trace is not None:
                trace.append(current)
            if recorder is not None:
                recorder.emit(
                    "accept",
                    mapping=mapping_to_dict(current),
                    rank=current_rank,
                )
            continue
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
    application: PipelineApplication,
    platform: Platform,
    rank: Callable[[IntervalMapping], _Rank],
    solver: str,
    *,
    restarts: int,
    max_steps: int,
    seed: int | None,
    pool: _BulkNeighborhood | None,
    trace: list[IntervalMapping] | None,
    warm_starts: list[IntervalMapping],
    recorder: Any = None,
) -> tuple[IntervalMapping, _Rank, int]:
    rng = recorder.rng(seed) if recorder is not None else random.Random(seed)
    # Deterministic starts: caller-supplied warm starts first (sweep
    # chaining seeds descents from the previous threshold's optimum —
    # descent is monotone, so the result can never rank worse than any
    # of them), then the best few single-interval candidates, then
    # random restarts up to the restart budget.
    warm = sorted(
        single_interval_mappings(application, platform), key=rank
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
            application,
            platform,
            start,
            rank,
            rng,
            max_steps,
            pool,
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
    use_bulk: bool | None = None,
    bulk_backend: str | None = None,
    trace: list[IntervalMapping] | None = None,
    warm_starts: WarmStarts | None = None,
    recorder: Any = None,
) -> SolverResult:
    """Hill-climbing for 'minimise FP subject to latency <= L'.

    ``use_bulk`` selects vectorized neighbourhood scoring (``None`` =
    automatic when numpy is present); ``bulk_backend`` picks the
    evaluator's array engine (``"auto"`` / ``"jit"`` / ``"numpy"``, see
    :func:`repro.core.metrics_bulk.resolve_backend`); the accepted-move
    sequence and the result are identical either way.  Pass a list as ``trace`` to
    collect every accepted mapping in order (equivalence testing /
    trajectory inspection).  ``warm_starts`` (mappings or their
    serialised dicts) seed extra descents ahead of the built-in starts;
    the result never ranks worse than any supplied warm start (see
    :mod:`repro.algorithms.heuristics.warm`).  ``recorder`` (a
    :class:`repro.engine.recorder.RunRecorder`) captures restarts and
    accepted moves as an event log without changing the trajectory.

    Raises
    ------
    InfeasibleProblemError
        If the search never reaches the feasible region.
    InvalidMappingError
        If a warm start does not fit the instance.
    """
    warm = decode_warm_starts(warm_starts, application, platform)
    slack = tolerance * max(1.0, abs(latency_threshold))
    # neighbourhood moves change one or two intervals, so memoized
    # per-interval terms make re-ranking nearly free
    cache = EvaluationCache(application, platform)
    if recorder is not None:
        recorder.observe_cache(cache)

    def rank(mapping: IntervalMapping) -> _Rank:
        lat = cache.latency(mapping)
        fp = cache.failure_probability(mapping)
        if lat <= latency_threshold + slack:
            return (0, fp, lat)
        return (1, lat - latency_threshold, fp)

    pool: _BulkNeighborhood | None = None
    if resolve_use_bulk(use_bulk):
        from .bulk import margin, value_margin

        def prefilter(
            lats: "np.ndarray", fps: "np.ndarray", cr: _Rank
        ) -> "np.ndarray":
            lat_slack = margin(latency_threshold)
            maybe_feasible = lats <= latency_threshold + slack + lat_slack
            if cr[0] == 0:
                # improving on a feasible state needs fp <= current fp
                # (ties fall through to the latency tie-break)
                return maybe_feasible & (fps <= cr[1] + value_margin(cr[1]))
            # an infeasible state improves by becoming feasible or by
            # shrinking the latency excess
            excess_slack = margin(latency_threshold, cr[1])
            return maybe_feasible | (
                lats - latency_threshold <= cr[1] + excess_slack
            )

        pool = _BulkNeighborhood(
            application, platform, prefilter, backend=bulk_backend
        )

    best, best_rank, steps = _solve(
        application,
        platform,
        rank,
        "local-search-min-fp",
        restarts=restarts,
        max_steps=max_steps,
        seed=seed,
        pool=pool,
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
    use_bulk: bool | None = None,
    bulk_backend: str | None = None,
    trace: list[IntervalMapping] | None = None,
    warm_starts: WarmStarts | None = None,
    recorder: Any = None,
) -> SolverResult:
    """Hill-climbing for 'minimise latency subject to FP <= bound'.

    ``use_bulk``/``bulk_backend``/``trace``/``warm_starts``/``recorder``
    behave as in :func:`local_search_minimize_fp`.

    Raises
    ------
    InfeasibleProblemError
        If the search never reaches the feasible region.
    InvalidMappingError
        If a warm start does not fit the instance.
    """
    warm = decode_warm_starts(warm_starts, application, platform)
    slack = tolerance * max(1.0, abs(fp_threshold))
    cache = EvaluationCache(application, platform)
    if recorder is not None:
        recorder.observe_cache(cache)

    def rank(mapping: IntervalMapping) -> _Rank:
        lat = cache.latency(mapping)
        fp = cache.failure_probability(mapping)
        if fp <= fp_threshold + slack:
            return (0, lat, fp)
        return (1, fp - fp_threshold, lat)

    pool: _BulkNeighborhood | None = None
    if resolve_use_bulk(use_bulk):
        from .bulk import margin, value_margin

        def prefilter(
            lats: "np.ndarray", fps: "np.ndarray", cr: _Rank
        ) -> "np.ndarray":
            fp_slack = value_margin(fp_threshold)
            maybe_feasible = fps <= fp_threshold + slack + fp_slack
            if cr[0] == 0:
                return maybe_feasible & (lats <= cr[1] + margin(cr[1]))
            excess_slack = value_margin(fp_threshold, cr[1])
            return maybe_feasible | (
                fps - fp_threshold <= cr[1] + excess_slack
            )

        pool = _BulkNeighborhood(
            application, platform, prefilter, backend=bulk_backend
        )

    best, best_rank, steps = _solve(
        application,
        platform,
        rank,
        "local-search-min-latency",
        restarts=restarts,
        max_steps=max_steps,
        seed=seed,
        pool=pool,
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
