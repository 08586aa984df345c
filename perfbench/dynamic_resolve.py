"""dynamic-resolve: in-process failure-driven simulations.

Each simulation pushes a Poisson trace through a ``churn-pool`` pipeline
mapped by ``greedy-min-fp`` while an iid failure timeline (with repair)
kills and revives processors; policy ``resolve-warm`` re-solves on
every disruptive change.  The DES event loop does almost all the work
and the solver runs only on re-solves, so this is the main stage for
DES changes and the control for evaluator changes.
"""

from __future__ import annotations

import json
from typing import Any

from repro import api
from repro.analysis.frontier import latency_grid
from repro.simulation.dynamic import make_arrivals

from .common import (
    END_TO_END,
    PER_LAYER,
    RUN_DIR,
    Outcome,
    catalog_metrics,
    median,
    nines,
    self_peak_rss_mb,
    setup_times,
    time_probe,
    work_units,
)
from .hostspeed import timed
from .spans import Probes, Tracer, chrome_trace, layer_values, self_time_table

NAME = "dynamic-resolve"
STAGES = 8
#: trace items per simulation: many short simulations (many instances)
#: per run keep the run's medians and quality mean steady across seeds
ITEMS = 25_000
#: nominal seconds per simulation on a 2-core host (sizes the run's work)
SIM_SECONDS = 0.6
ARRIVAL_RATE = 0.05
#: mean repair time: processors revive, so re-solves recur all run long
REPAIR = 2000.0
#: how simulation times follow the host-speed reference (hostspeed.py):
#: single sets of 5-10 runs fit 0.6 to 1.0 (a neighbour's load does not
#: slow every instruction mix alike); 0.8 gives the least worst-case
#: run-to-run spread of the simulation p50 over four such sets
ELASTICITY = 0.8


def make_spec(seed: int, k: int) -> dict[str, Any]:
    """Simulation ``k`` of a run: instance ``k`` of a fixed pool, the
    middle point of its latency grid as threshold (always feasible), and
    an arrival trace and failure timeline drawn from the run's seed.

    The pool is the same for every seed: instances differ so much in
    reliability (about 1.6 nines standard deviation) that a fresh draw
    of a run's instances moved ``fp_nines`` by 10% between seeds, while
    what a change to the program moves is the mappings chosen on them.
    """
    instance = {
        "scenario": "churn-pool",
        "seed": k,
        "params": {"stages": STAGES},
    }
    application, platform = api.make_scenario(
        "churn-pool", seed=k, params={"stages": STAGES}
    )
    return {
        "schema": 1,
        "kind": "simulation",
        "instance": instance,
        "solver": "greedy-min-fp",
        "threshold": latency_grid(application, platform, num_points=5)[2],
        "policy": "resolve-warm",
        "trace": {"kind": "poisson", "items": ITEMS, "rate": ARRIVAL_RATE},
        "failures": {"model": "iid", "params": {"repair": REPAIR}},
        "seed": seed * 1000 + k,
    }


def start_simulation(seed: int, k: int) -> Any:
    """What a simulation does before its first event: load the spec,
    draw the arrival trace and solve the initial mapping."""
    spec = api.sim_from_spec(make_spec(seed, k))
    platform = spec.instance.platform
    make_arrivals(spec.trace, spec.seed)
    return api.resolve_mapping(
        spec.instance.application,
        platform,
        range(1, platform.size + 1),
        solver=spec.solver,
        threshold=spec.threshold,
        policy="resolve-full",
        seed=spec.seed,
    )


class Simulation:
    """One simulation: once run, its result, ``raw`` wall seconds and
    ``wall``, the same at nominal host speed (:mod:`perfbench.hostspeed`)."""

    def __init__(self, seed: int, k: int) -> None:
        self.spec = make_spec(seed, k)
        self.result: Any = None
        self.raw = self.wall = 0.0

    def simulate(self) -> Any:
        return api.run_simulation(self.spec)


def run_simulations(seed: int, count: int) -> list[Simulation]:
    """Simulations ``0 .. count-1`` of a run, each timed."""
    sims = [Simulation(seed, k) for k in range(count)]
    for s in sims:
        s.result, s.raw, scale = timed(s.simulate, ELASTICITY)
        s.wall = s.raw * scale
    return sims


def _signature(result: Any) -> tuple[Any, ...]:
    return (
        result.items_completed,
        result.items_lost,
        result.resolves,
        [e.to_dict() for e in result.epochs],  # dicts: nan-free equality
        result.event_log,
    )


def _check(out: Outcome, sims: list[Simulation]) -> None:
    out.attempted += len(sims)
    short = [s for s in sims if s.result.items_total != ITEMS]
    out.check(
        "every simulation accounts for its whole trace",
        not short,
        failures=len(short),
    )


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome(NAME)
    if trace:
        return _run_traced(out, seed, seconds)
    setups = setup_times(lambda: time_probe(NAME, seed))
    sims = run_simulations(seed, work_units(seconds, SIM_SECONDS))
    rss = self_peak_rss_mb()

    _check(out, sims)
    again = api.run_simulation(sims[0].spec)
    out.check(
        "a repeated simulation gives identical completed/lost/re-solves",
        _signature(again) == _signature(sims[0].result),
    )
    results = [s.result for s in sims]
    walls = [s.wall for s in sims]
    reliability = [
        nines(e.analytic_fp)
        for r in results
        for e in r.epochs
        if not e.down and 0.0 < e.analytic_fp < 1.0
    ]
    completed = sum(r.items_completed for r in results)
    total = sum(r.items_total for r in results)
    n = len(sims)
    values = {
        "setup_s": (median(setups), len(setups)),
        "latency_p50_ms": (median(walls) * 1e3, n),
        "overhead_p50_ms": (
            median(
                [(s.raw - s.result.resolve_seconds) * s.wall / s.raw for s in sims]
            )
            * 1e3,
            n,
        ),
        "goodput_per_s": (completed / sum(walls), total),
        "fp_nines": (sum(reliability) / len(reliability), len(reliability)),
        "peak_rss_mb": (rss, 1),
    }
    out.metrics = catalog_metrics(END_TO_END, values)
    out.details = catalog_metrics(
        (
            ("sim_items_per_s", "items/s", "higher"),
            ("raw_sim_items_per_s", "items/s", "higher"),
            ("raw_latency_p50_ms", "ms", "lower"),
            ("sim_completed_share", "ratio", "higher"),
            ("sim_resolves", "count", "higher"),
            ("error_share", "ratio", "lower"),
        ),
        {
            "sim_items_per_s": (total / sum(walls), total),
            "raw_sim_items_per_s": (total / sum(s.raw for s in sims), total),
            "raw_latency_p50_ms": (median([s.raw for s in sims]) * 1e3, n),
            "sim_completed_share": (completed / total, total),
            "sim_resolves": (sum(r.resolves for r in results), n),
            "error_share": (out.failed / max(out.attempted, 1), out.attempted),
        },
    )
    out.extra["simulations"] = n
    return out


def _run_traced(out: Outcome, seed: int, seconds: float) -> Outcome:
    # half the run untraced, half traced, on the same inputs
    count = work_units(seconds / 2, SIM_SECONDS)
    plain = run_simulations(seed, count)
    tracer = Tracer()
    with Probes(tracer).install():
        traced = run_simulations(seed, count)
    _check(out, plain + traced)
    out.check(
        "traced simulations equal untraced ones",
        [_signature(s.result) for s in plain]
        == [_signature(s.result) for s in traced],
    )
    data = tracer.export()
    values = layer_values(data["spans"], data["counters"])
    values["simulation.dynamic.resolves"] = (
        sum(s.result.resolves for s in traced),
        count,
    )
    values["trace.overhead_share"] = (
        sum(s.wall for s in traced) / sum(s.wall for s in plain) - 1.0,
        count,
    )
    out.metrics = catalog_metrics(PER_LAYER, values)
    out.extra["self_time"] = self_time_table(data["spans"])
    RUN_DIR.mkdir(exist_ok=True)
    with open(RUN_DIR / f"trace-{NAME}.json", "w", encoding="utf-8") as fh:
        json.dump(chrome_trace({0: data["spans"]}), fh)
    return out
