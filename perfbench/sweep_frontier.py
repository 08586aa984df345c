"""sweep-frontier: in-process threshold sweeps, no store, one worker.

Each *pass* is two sweep requests on fresh ``wide-pipeline`` instances:
three sizes x {greedy, local search, annealing} x an 8-point latency
grid with warm-start chaining, plus one exhaustive cell answered by the
one-pass bulk enumeration.  Solver move loops and the evaluators do
nearly all the work; the service and store do none, so this is the
main stage for solver/evaluator changes and the no-change control for
protocol and store changes.
"""

from __future__ import annotations

import json
from typing import Any

from repro import api
from repro.engine.policy import ErrorKind

from .common import (
    END_TO_END,
    PER_LAYER,
    RUN_DIR,
    Outcome,
    catalog_metrics,
    median,
    nines,
    rescore,
    self_peak_rss_mb,
    setup_times,
    time_probe,
    work_units,
)
from .hostspeed import timed
from .spans import Probes, Tracer, chrome_trace, layer_values, self_time_table

NAME = "sweep-frontier"
#: (stages, processors) of the heuristic instances in one pass
SHAPES = ((24, 8), (32, 10), (48, 12))
HEURISTICS = ("greedy-min-fp", "local-search-min-fp", "anneal-min-fp")
#: the exhaustive cell: small enough for one enumeration pass
EXHAUSTIVE_SHAPE = (9, 6)
GRID_POINTS = 8
#: nominal seconds per pass on a 2-core host (sizes the run's work)
PASS_SECONDS = 2.25
#: how pass times follow the host-speed reference (hostspeed.py):
#: single sets of 5-10 runs fit 0.5 to 1.0 (a neighbour's load does not
#: slow every instruction mix alike); 0.6 gives the least worst-case
#: run-to-run spread of the pass p50 over three such sets
ELASTICITY = 0.6


def _instance(seed: int, stages: int, processors: int) -> dict[str, Any]:
    return {
        "scenario": "wide-pipeline",
        "seed": seed,
        "params": {"stages": stages, "num_processors": processors},
    }


def build_pass(seed: int, k: int) -> tuple[tuple[Any, Any], int]:
    """The two plans of pass ``k`` and the sweep seed they run with.

    Pass ``k`` of every run sweeps the same instances (a fixed pool);
    the seed draws the solvers' random choices.  A fresh instance draw
    per seed would move the pass time with the instances' sizes.
    """
    base = k * 10
    heuristics = api.plan_from_spec(
        {
            "schema": 1,
            "kind": "sweep",
            "instances": [
                _instance(base + i, n, m) for i, (n, m) in enumerate(SHAPES)
            ],
            "solvers": list(HEURISTICS),
            "grid": {"num_points": GRID_POINTS},
            "warm_start": "chain",
        }
    )
    exhaustive = api.plan_from_spec(
        {
            "schema": 1,
            "kind": "sweep",
            "instances": [_instance(base + 9, *EXHAUSTIVE_SHAPE)],
            "solvers": ["exhaustive-min-fp"],
            "grid": {"num_points": GRID_POINTS},
        }
    )
    return (heuristics, exhaustive), seed * 1000 + k


class Pass:
    """One pass and, once run, everything it answered.

    ``raw`` is its wall time in seconds, ``wall`` the same at nominal
    host speed (:mod:`perfbench.hostspeed`).
    """

    def __init__(self, seed: int, k: int) -> None:
        self.plans, self.sweep_seed = build_pass(seed, k)
        self.results: list[Any] = []
        self.raw = self.wall = 0.0

    def sweep(self) -> list[Any]:
        return [
            api.run_sweep(plan, workers=1, seed=self.sweep_seed)
            for plan in self.plans
        ]

    def points(self):
        """``(application, platform, threshold, outcome)`` per grid point."""
        for plan, result in zip(self.plans, self.results):
            instances = {inst.tag: inst for inst in plan.instances}
            for cell in result.cells:
                inst = instances[cell.instance_tag]
                for threshold, outcome in zip(cell.thresholds, cell.outcomes):
                    yield inst.application, inst.platform, threshold, outcome

    @property
    def solver_seconds(self) -> float:
        return sum(o.elapsed for *_, o in self.points())


def run_passes(seed: int, count: int) -> list[Pass]:
    """Passes ``0 .. count-1`` of a run, each timed."""
    passes = [Pass(seed, k) for k in range(count)]
    for p in passes:
        p.results, p.raw, scale = timed(p.sweep, ELASTICITY)
        p.wall = p.raw * scale
    return passes


def _check(out: Outcome, passes: list[Pass]) -> tuple[int, int, list[float]]:
    """Re-score every point; returns ``(points, completed, nines)``."""
    points = completed = 0
    reliability: list[float] = []
    problems: list[str] = []
    for p in passes:
        for app, plat, threshold, outcome in p.points():
            points += 1
            if outcome.ok:
                r = outcome.result
                problem = rescore(
                    app, plat, threshold, r.mapping, r.latency, r.failure_probability
                )
                if problem is None:
                    completed += 1
                    reliability.append(nines(r.failure_probability))
                else:
                    problems.append(f"{outcome.tag}: {problem}")
            elif outcome.error_kind is ErrorKind.INFEASIBLE:
                completed += 1
            else:
                problems.append(f"{outcome.tag}: {outcome.error}")
    out.attempted += points
    out.check(
        "every grid point re-scores within 1e-9 and meets its threshold",
        not problems,
        "; ".join(problems[:3]),
        failures=len(problems),
    )
    return points, completed, reliability


def _answers(passes: list[Pass]) -> list[tuple[Any, ...]]:
    return [
        (o.ok, o.result.mapping, o.result.latency, o.result.failure_probability)
        if o.ok
        else (o.ok, o.error_kind)
        for p in passes
        for *_, o in p.points()
    ]


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome(NAME)
    if trace:
        return _run_traced(out, seed, seconds)
    setups = setup_times(lambda: time_probe(NAME, seed))
    passes = run_passes(seed, work_units(seconds, PASS_SECONDS))
    rss = self_peak_rss_mb()

    points, completed, reliability = _check(out, passes)
    walls = [p.wall for p in passes]
    overheads = [(p.raw - p.solver_seconds) * p.wall / p.raw for p in passes]
    n = len(passes)
    values = {
        "setup_s": (median(setups), len(setups)),
        "latency_p50_ms": (median(walls) * 1e3, n),
        "overhead_p50_ms": (median(overheads) * 1e3, n),
        "goodput_per_s": (completed / sum(walls), points),
        "fp_nines": (sum(reliability) / len(reliability), len(reliability)),
        "peak_rss_mb": (rss, 1),
    }
    out.metrics = catalog_metrics(END_TO_END, values)
    out.details = catalog_metrics(
        (
            ("sweep_points_per_s", "points/s", "higher"),
            ("raw_sweep_points_per_s", "points/s", "higher"),
            ("raw_latency_p50_ms", "ms", "lower"),
            ("sweep_fp_log10_mean", "log10", "lower"),
            ("error_share", "ratio", "lower"),
        ),
        {
            "sweep_points_per_s": (completed / sum(walls), points),
            "raw_sweep_points_per_s": (completed / sum(p.raw for p in passes), points),
            "raw_latency_p50_ms": (median([p.raw for p in passes]) * 1e3, n),
            "sweep_fp_log10_mean": (-values["fp_nines"][0], len(reliability)),
            "error_share": (out.failed / max(out.attempted, 1), out.attempted),
        },
    )
    out.extra["passes"] = n
    return out


def _run_traced(out: Outcome, seed: int, seconds: float) -> Outcome:
    # half the run untraced, half traced, on the same inputs
    count = work_units(seconds / 2, PASS_SECONDS)
    plain = run_passes(seed, count)
    tracer = Tracer()
    with Probes(tracer).install():
        traced = run_passes(seed, count)
    _check(out, plain + traced)
    out.check(
        "traced answers equal untraced answers",
        _answers(plain) == _answers(traced),
    )
    data = tracer.export()
    values = layer_values(data["spans"], data["counters"])
    values["trace.overhead_share"] = (
        sum(p.wall for p in traced) / sum(p.wall for p in plain) - 1.0,
        count,
    )
    out.metrics = catalog_metrics(PER_LAYER, values)
    out.extra["self_time"] = self_time_table(data["spans"])
    RUN_DIR.mkdir(exist_ok=True)
    with open(RUN_DIR / f"trace-{NAME}.json", "w", encoding="utf-8") as fh:
        json.dump(chrome_trace({0: data["spans"]}), fh)
    return out
