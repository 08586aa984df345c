"""Reference oracle for the simulated annealer.

The classic loop the annealing solvers ran before they drew proposals
by index: every proposal rebuilds the whole one-move neighbourhood as
mapping objects (``list(neighbors(...))``), draws one with
``rng.choice`` and evaluates the drawn mapping in full through an
``EvaluationCache`` (whose whole-mapping ``latency`` /
``failure_probability`` are bit-identical to the plain metric
functions, property-tested in ``tests/core/test_metrics_cache.py``).
Slow, but it states the walk with no move decoding, no
interval-replacement scoring and no memo between the Metropolis rule
and the evaluation of whole mappings, so the solvers are tested (and
benchmarked) against it.
"""

from __future__ import annotations

import math
import random
from typing import Any

from repro.algorithms.heuristics.annealing import AnnealingSchedule
from repro.algorithms.heuristics.neighborhood import neighbors, random_mapping
from repro.algorithms.heuristics.single_interval import single_interval_mappings
from repro.algorithms.heuristics.warm import decode_warm_starts
from repro.algorithms.result import SolverResult
from repro.core.mapping import IntervalMapping
from repro.core.metrics import EvaluationCache, failure_probability, latency
from repro.core.serialization import mapping_to_dict
from repro.exceptions import InfeasibleProblemError

__all__ = ["reference_anneal_minimize_fp", "reference_anneal_minimize_latency"]


def _anneal(
    application,
    platform,
    energy,
    feasible_rank,
    schedule,
    rng,
    trace=None,
    warm_starts=None,
    recorder: Any = None,
):
    warm = sorted(single_interval_mappings(application, platform), key=energy)
    seeds = [*(warm_starts or []), *warm]
    current = (
        min(seeds, key=energy)
        if seeds
        else random_mapping(application.num_stages, platform.size, rng)
    )
    current_e = energy(current)

    best_feasible = None
    best_rank = None

    def consider(state):
        nonlocal best_feasible, best_rank
        rank = feasible_rank(state)
        if rank is not None and (best_rank is None or rank < best_rank):
            best_feasible, best_rank = state, rank

    for candidate in seeds:
        consider(candidate)
    consider(current)
    if recorder is not None:
        recorder.emit(
            "anneal_start", mapping=mapping_to_dict(current), energy=current_e
        )
    temperature = schedule.initial_temperature
    for step in range(schedule.steps):
        options = list(neighbors(current, platform.size))
        candidate = rng.choice(options) if options else current
        cand_e = energy(candidate)
        delta = cand_e - current_e
        accepted = delta <= 0 or rng.random() < math.exp(-delta / temperature)
        if recorder is not None:
            if accepted:
                recorder.emit(
                    "propose",
                    step=step,
                    energy=cand_e,
                    accepted=True,
                    mapping=mapping_to_dict(candidate),
                )
            else:
                recorder.emit("propose", step=step, energy=cand_e, accepted=False)
        if accepted:
            current, current_e = candidate, cand_e
            if trace is not None:
                trace.append(current)
            consider(current)
        temperature = max(temperature * schedule.cooling, 1e-9)
    return best_feasible


def reference_anneal_minimize_fp(
    application,
    platform,
    latency_threshold: float,
    *,
    schedule: AnnealingSchedule | None = None,
    penalty: float = 10.0,
    seed: int | None = 0,
    tolerance: float = 1e-9,
    trace=None,
    warm_starts=None,
    recorder: Any = None,
) -> SolverResult:
    """Whole-neighbourhood form of ``anneal_minimize_fp``."""
    warm = decode_warm_starts(warm_starts, application, platform)
    if schedule is None:
        schedule = AnnealingSchedule()
    rng = recorder.rng(seed) if recorder is not None else random.Random(seed)
    slack = tolerance * max(1.0, abs(latency_threshold))
    scale = max(latency_threshold, 1e-12)
    cache = EvaluationCache(application, platform)
    if recorder is not None:
        recorder.observe_cache(cache)

    def energy(mapping):
        lat = cache.latency(mapping)
        fp = cache.failure_probability(mapping)
        violation = max(0.0, lat - latency_threshold) / scale
        return fp + penalty * violation

    def feasible_rank(mapping):
        lat = cache.latency(mapping)
        if lat > latency_threshold + slack:
            return None
        return (cache.failure_probability(mapping), lat)

    best = _anneal(
        application, platform, energy, feasible_rank, schedule, rng,
        trace=trace, warm_starts=warm, recorder=recorder,
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


def reference_anneal_minimize_latency(
    application,
    platform,
    fp_threshold: float,
    *,
    schedule: AnnealingSchedule | None = None,
    penalty: float | None = None,
    seed: int | None = 0,
    tolerance: float = 1e-9,
    trace=None,
    warm_starts=None,
    recorder: Any = None,
) -> SolverResult:
    """Whole-neighbourhood form of ``anneal_minimize_latency``."""
    warm = decode_warm_starts(warm_starts, application, platform)
    rng = recorder.rng(seed) if recorder is not None else random.Random(seed)
    slack = tolerance * max(1.0, abs(fp_threshold))
    fastest = platform.fastest().index
    base = latency(
        IntervalMapping.single_interval(application.num_stages, {fastest}),
        application,
        platform,
    )
    if penalty is None:
        penalty = 10.0 * max(base, 1.0)
    if schedule is None:
        schedule = AnnealingSchedule(initial_temperature=0.5 * max(base, 1.0))
    cache = EvaluationCache(application, platform)
    if recorder is not None:
        recorder.observe_cache(cache)

    def energy(mapping):
        lat = cache.latency(mapping)
        fp = cache.failure_probability(mapping)
        violation = max(0.0, fp - fp_threshold)
        return lat + penalty * violation

    def feasible_rank(mapping):
        fp = cache.failure_probability(mapping)
        if fp > fp_threshold + slack:
            return None
        return (cache.latency(mapping), fp)

    best = _anneal(
        application, platform, energy, feasible_rank, schedule, rng,
        trace=trace, warm_starts=warm, recorder=recorder,
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
