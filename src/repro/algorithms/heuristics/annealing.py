"""Simulated annealing over interval mappings.

A penalised scalar energy drives a classic geometric-cooling annealer over
the shared move set.  For the query *min FP s.t. latency <= L*::

    E(mapping) = FP + penalty * max(0, (latency - L) / L_scale)

and symmetrically for the latency query.  Annealing trades the local
search's determinism for a better chance of hopping between interval
structures (e.g. from the one-interval basin to the Figure 5 two-interval
optimum) on rugged Failure Heterogeneous instances.

Each proposal is one ``rng.choice(range(size))`` draw over the indexed
neighbourhood of the current state
(:class:`~repro.algorithms.heuristics.neighborhood.Neighborhood`, built
once per accepted state).  The drawn move replaces at most two
intervals, so it is scored from cached interval terms through
:meth:`~repro.core.metrics.EvaluationCache.objectives_with`, and a
mapping object is built only when the move is accepted; a per-state
memo answers repeat draws of a move (most draws, once the walk
freezes).  The walk, every Metropolis decision, the recorded proposal
energies and the result are bit-identical to drawing from the whole
list of neighbour mappings and evaluating the drawn one from scratch
(the reference loop the tests keep as an oracle).  No numpy is needed.
"""

from __future__ import annotations

import math
import random
from typing import Any, Callable

from ..result import SolverResult, threshold_bound
from .neighborhood import Neighborhood, random_mapping
from .single_interval import single_interval_mappings
from .warm import WarmStarts, decode_warm_starts
from ...core.application import PipelineApplication
from ...core.mapping import IntervalMapping
from ...core.metrics import EvaluationCache, failure_probability, latency
from ...core.platform import Platform
from ...core.serialization import mapping_to_dict
from ...exceptions import InfeasibleProblemError

__all__ = ["anneal_minimize_fp", "anneal_minimize_latency", "AnnealingSchedule"]


class AnnealingSchedule:
    """Geometric cooling schedule parameters.

    Attributes
    ----------
    initial_temperature:
        Starting temperature (energy units).
    cooling:
        Multiplicative factor per step, in ``(0, 1)``.
    steps:
        Total number of proposed moves.
    """

    def __init__(
        self,
        initial_temperature: float = 0.5,
        cooling: float = 0.995,
        steps: int = 2000,
    ) -> None:
        if not 0 < cooling < 1:
            raise ValueError(f"cooling must be in (0,1), got {cooling}")
        if initial_temperature <= 0:
            raise ValueError(
                f"initial temperature must be positive, got {initial_temperature}"
            )
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        self.initial_temperature = initial_temperature
        self.cooling = cooling
        self.steps = steps


def _anneal(
    application: PipelineApplication,
    platform: Platform,
    cache: EvaluationCache,
    energy: Callable[[float, float], float],
    feasible_rank: Callable[[float, float], tuple[float, float] | None],
    schedule: AnnealingSchedule,
    rng: random.Random,
    trace: list[IntervalMapping] | None = None,
    warm_starts: list[IntervalMapping] | None = None,
    recorder: Any = None,
) -> IntervalMapping | None:
    """Anneal on ``energy``; return the best *feasible* state visited.

    ``energy`` and ``feasible_rank`` both take a state's ``(latency,
    FP)`` as scored by ``cache``: the first gives the penalised energy,
    the second the lexicographic objective of a feasible state (lower is
    better) or ``None`` for an infeasible one.  Tracking feasibility
    separately from energy matters: the penalised energy may rank an
    infeasible state lowest, but the caller needs the best state that
    actually satisfies the threshold.

    ``trace`` collects every accepted state.  ``warm_starts`` join the
    single-interval pool as known states: the energy-best of the
    combined pool becomes the initial state, and each is considered, so
    the returned result is never worse than any feasible warm start.
    """

    def objectives(mapping: IntervalMapping) -> tuple[float, float]:
        return cache.latency(mapping), cache.failure_probability(mapping)

    def state_energy(mapping: IntervalMapping) -> float:
        return energy(*objectives(mapping))

    warm = sorted(single_interval_mappings(application, platform), key=state_energy)
    seeds = [*(warm_starts or []), *warm]
    current = (
        min(seeds, key=state_energy)
        if seeds
        else random_mapping(application.num_stages, platform.size, rng)
    )
    current_lat, current_fp = objectives(current)
    current_e = energy(current_lat, current_fp)

    best_feasible: IntervalMapping | None = None
    best_rank: tuple[float, float] | None = None

    def consider(state: IntervalMapping, lat: float, fp: float) -> None:
        nonlocal best_feasible, best_rank
        rank = feasible_rank(lat, fp)
        if rank is not None and (best_rank is None or rank < best_rank):
            best_feasible, best_rank = state, rank

    # every seed is a known state: the annealer can only improve on the
    # best feasible one among them
    for candidate in seeds:
        consider(candidate, *objectives(candidate))
    consider(current, current_lat, current_fp)
    if recorder is not None:
        recorder.emit(
            "anneal_start",
            mapping=mapping_to_dict(current),
            energy=current_e,
        )
    temperature = schedule.initial_temperature
    neighborhood: Neighborhood | None = None
    # move index -> (energy, latency, FP, move) for the current state
    memo: dict[int, tuple] = {}
    for step in range(schedule.steps):
        if neighborhood is None:
            neighborhood = Neighborhood(current, platform.size)
            memo = {}
        if neighborhood.size:
            idx = rng.choice(range(neighborhood.size))
            scored = memo.get(idx)
            if scored is None:
                move = neighborhood.move(idx)
                lat, fp = cache.objectives_with(current, *move)
                scored = memo[idx] = (energy(lat, fp), lat, fp, move)
            delta = scored[0] - current_e
            accepted = delta <= 0 or rng.random() < math.exp(-delta / temperature)
            if accepted:
                current = neighborhood.apply(scored[3])
                current_e, current_lat, current_fp = scored[:3]
                neighborhood = None
        else:
            # no move applies (1 stage, 1 processor): the state proposes
            # itself, and a zero delta accepts without an acceptance draw
            accepted = True
        if recorder is not None:
            # the mapping payload rides only on accepted steps
            if accepted:
                recorder.emit(
                    "propose",
                    step=step,
                    energy=current_e,
                    accepted=True,
                    mapping=mapping_to_dict(current),
                )
            else:
                recorder.emit("propose", step=step, energy=scored[0], accepted=False)
        if accepted:
            if trace is not None:
                trace.append(current)
            consider(current, current_lat, current_fp)
        temperature = max(temperature * schedule.cooling, 1e-9)
    return best_feasible


def anneal_minimize_fp(
    application: PipelineApplication,
    platform: Platform,
    latency_threshold: float,
    *,
    schedule: AnnealingSchedule | None = None,
    penalty: float = 10.0,
    seed: int | None = 0,
    tolerance: float = 1e-9,
    trace: list[IntervalMapping] | None = None,
    warm_starts: WarmStarts | None = None,
    recorder: Any = None,
) -> SolverResult:
    """Simulated annealing for 'minimise FP subject to latency <= L'.

    Pass a list as ``trace`` to collect every accepted state in order.
    ``warm_starts`` (mappings or serialised dicts, validated against the
    instance) join the initial candidate pool; the result is never worse
    than any feasible warm start.  ``recorder`` (a
    :class:`repro.engine.recorder.RunRecorder`) captures every proposal
    with its energy without changing the walk.

    Raises
    ------
    InfeasibleProblemError
        If the best state found is still latency-infeasible.
    InvalidMappingError
        If a warm start does not fit the instance.
    """
    warm = decode_warm_starts(warm_starts, application, platform)
    if schedule is None:
        schedule = AnnealingSchedule()
    rng = recorder.rng(seed) if recorder is not None else random.Random(seed)
    bound = threshold_bound(latency_threshold, tolerance)
    scale = max(latency_threshold, 1e-12)
    cache = EvaluationCache(application, platform)
    if recorder is not None:
        recorder.observe_cache(cache)

    def energy(lat: float, fp: float) -> float:
        return fp + penalty * (max(0.0, lat - latency_threshold) / scale)

    def feasible_rank(lat: float, fp: float) -> tuple[float, float] | None:
        return None if lat > bound else (fp, lat)

    best = _anneal(
        application,
        platform,
        cache,
        energy,
        feasible_rank,
        schedule,
        rng,
        trace=trace,
        warm_starts=warm,
        recorder=recorder,
    )
    if best is None:
        raise InfeasibleProblemError(
            "annealing found no mapping under the latency threshold "
            f"{latency_threshold}"
        )
    return SolverResult(
        mapping=best,
        latency=latency(best, application, platform),
        failure_probability=failure_probability(best, platform),
        solver="annealing-min-fp",
        optimal=False,
        extras={"steps": schedule.steps},
    )


def anneal_minimize_latency(
    application: PipelineApplication,
    platform: Platform,
    fp_threshold: float,
    *,
    schedule: AnnealingSchedule | None = None,
    penalty: float | None = None,
    seed: int | None = 0,
    tolerance: float = 1e-9,
    trace: list[IntervalMapping] | None = None,
    warm_starts: WarmStarts | None = None,
    recorder: Any = None,
) -> SolverResult:
    """Simulated annealing for 'minimise latency subject to FP <= bound'.

    The default penalty *and* the default temperature scale with the
    latency magnitude of the single-processor mapping: energies are in
    latency units here (unlike the FP query, where they live in [0, 1]),
    so a fixed sub-unit temperature would freeze the walk immediately.
    ``trace``/``warm_starts``/``recorder`` behave as in
    :func:`anneal_minimize_fp`.

    Raises
    ------
    InfeasibleProblemError
        If the best state found is still FP-infeasible.
    InvalidMappingError
        If a warm start does not fit the instance.
    """
    warm = decode_warm_starts(warm_starts, application, platform)
    rng = recorder.rng(seed) if recorder is not None else random.Random(seed)
    bound = threshold_bound(fp_threshold, tolerance)
    # a crude latency magnitude: whole pipeline on the fastest processor
    fastest = platform.fastest().index
    base = latency(
        IntervalMapping.single_interval(application.num_stages, {fastest}),
        application,
        platform,
    )
    if penalty is None:
        penalty = 10.0 * max(base, 1.0)
    if schedule is None:
        schedule = AnnealingSchedule(
            initial_temperature=0.5 * max(base, 1.0)
        )

    cache = EvaluationCache(application, platform)
    if recorder is not None:
        recorder.observe_cache(cache)

    def energy(lat: float, fp: float) -> float:
        return lat + penalty * max(0.0, fp - fp_threshold)

    def feasible_rank(lat: float, fp: float) -> tuple[float, float] | None:
        return None if fp > bound else (lat, fp)

    best = _anneal(
        application,
        platform,
        cache,
        energy,
        feasible_rank,
        schedule,
        rng,
        trace=trace,
        warm_starts=warm,
        recorder=recorder,
    )
    if best is None:
        raise InfeasibleProblemError(
            "annealing found no mapping under the FP threshold "
            f"{fp_threshold}"
        )
    return SolverResult(
        mapping=best,
        latency=latency(best, application, platform),
        failure_probability=failure_probability(best, platform),
        solver="annealing-min-latency",
        optimal=False,
        extras={"steps": schedule.steps},
    )
