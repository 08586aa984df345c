"""service-mixed: the solve daemon under an open-loop request mix.

The daemon runs as users deploy it, ``python -m repro serve --socket ...
--store <fresh>.sqlite --workers 2``, in its own process.  One load
generator process with two sender threads follows a Poisson schedule
drawn from the seed (open loop: requests go out when due, whatever the
daemon is doing, and each is timed from when it was *due*):

* ~45% cold solves (greedy / local search on never-seen edge-hub-cloud
  instances, 5-8 stages): a solver run plus a store write;
* ~45% warm solves repeating a cold key due at least 1 s earlier: a
  store read only;
* ~10% four-threshold greedy sweeps on fresh instances (streamed
  events, the sweep executor).

Thresholds come from each instance's own latency grid, so every solve
is feasible.  This is the only workload that exercises ``service.*``
and ``engine.store``; cold requests are dominated by the solver and
warm ones by everything above it.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

from repro import api
from repro.analysis.frontier import latency_grid
from repro.core.serialization import mapping_from_dict
from repro.exceptions import ReproError
from repro.service import ServiceClient

from .common import (
    END_TO_END,
    PER_LAYER,
    ROOT,
    RUN_DIR,
    Outcome,
    catalog_metrics,
    child_env,
    median,
    nines,
    percentile,
    proc_peak_rss_mb,
    rescore,
    run_dir,
    setup_times,
    tail_percentile,
)
from .hostspeed import Sampler, factor_at, idle_samples
from .spans import Tracer, chrome_trace, layer_values, self_time_table

NAME = "service-mixed"
#: offered load, about a quarter of the daemon's capacity for this mix
#: on a 2-core host (~30 req/s; a cold solve costs ~30 ms in the daemon):
#: a cold or sweep request is in flight ~20% of the time (~40% when a
#: neighbour halves the vCPU speed), so the p50s stay in the mode of
#: requests that run alone instead of straddling the contended one
RATE = 8.0
SWEEP_SHARE = 0.10
COLD_SHARE = 0.45
WARM_MIN_AGE_S = 1.0
#: cold solvers in a fixed rotation: two greedy, then one local search,
#: so the cold median sits inside the greedy mode instead of in the gap
#: between the two solvers' latency modes.  The gated cold p50 therefore
#: tracks greedy solves; each solver's own cold p50 is in ``details``.
SOLVERS = ("greedy-min-fp", "greedy-min-fp", "local-search-min-fp")
STAGES = (5, 6, 7, 8)
#: cold thresholds: inner points of the instance's 5-point latency grid
#: (at or above its fastest single-interval mapping, so always feasible)
COLD_POINTS = (1, 2, 3)
SWEEP_SOLVER = "greedy-min-fp"
SENDERS = 2
WORKERS = 2
SLO_S = {"solve": 0.050, "sweep": 0.500}
#: grid points a sweep request asks for (of a 5-point latency grid)
SWEEP_POINTS = 4
#: first instance seed of the sweep pool (the cold pool starts at 0)
SWEEP_POOL = 100_000
#: how far the traced cold-solve components may sum from the untraced p50
BREAKDOWN_TOLERANCE = 0.10
#: how request latencies follow the host-speed reference (hostspeed.py):
#: 0.49 and 0.53 across two sets of runs (a daemon request also waits
#: on sockets and on the daemon's other thread)
ELASTICITY = 0.5


@dataclass
class Request:
    index: int
    due: float
    kind: str  # "cold" | "warm" | "sweep"
    fields: dict[str, Any]
    #: (application, platform) for re-scoring; warm requests share their original's
    instance: tuple[Any, Any]
    original: "Request | None" = None

    @property
    def verb(self) -> str:
        return "sweep" if self.kind == "sweep" else "solve"


@dataclass
class Record:
    request: Request
    sent: float = 0.0
    end: float = 0.0
    events: list[dict[str, Any]] = field(default_factory=list)
    error: str | None = None

    @property
    def done(self) -> dict[str, Any] | None:
        last = self.events[-1] if self.events else None
        return last if last and last["event"] == "done" else None

    @property
    def outcomes(self) -> list[dict[str, Any]]:
        return [e for e in self.events if e["event"] == "outcome"]


def build_schedule(seed: int, seconds: float) -> list[Request]:
    """The run's requests, a pure function of ``(seed, seconds)``.

    Arrivals are a Poisson process conditioned on its count (``RATE *
    seconds`` uniform instants, sorted) and the kind counts are exact,
    so every seed offers the same load and mix; the seed picks the
    arrival instants, the order of kinds, which cold request each warm
    one repeats and the solver seeds.  Cold request ``c`` and sweep
    ``s`` of every run use instance ``c`` and ``s`` of two fixed pools,
    so which instances were drawn never adds to the run-to-run spread.
    """
    rng = random.Random(f"{NAME}-{seed}")
    total = max(1, round(RATE * seconds))
    dues = sorted(rng.uniform(0.0, seconds) for _ in range(total))
    sweeps = round(SWEEP_SHARE * total)
    colds_wanted = round(COLD_SHARE * total)
    kinds = (
        ["sweep"] * sweeps
        + ["cold"] * colds_wanted
        + ["warm"] * (total - sweeps - colds_wanted)
    )
    rng.shuffle(kinds)
    requests: list[Request] = []
    colds: list[Request] = []
    cold_dues: list[float] = []
    sweeps_seen = 0
    for t, kind in zip(dues, kinds):
        eligible = bisect.bisect_right(cold_dues, t - WARM_MIN_AGE_S)
        if kind == "warm" and not eligible:
            kind = "cold"
        if kind == "warm":
            original = colds[rng.randrange(eligible)]
            requests.append(
                Request(len(requests), t, kind, original.fields, original.instance, original)
            )
            continue
        # solvers, sizes and grid points rotate through a fixed cycle, so
        # every run asks for the same mix
        if kind == "cold":
            c = len(colds)
            solver = SOLVERS[c % len(SOLVERS)]
            stages = STAGES[c // len(SOLVERS) % len(STAGES)]
            point = COLD_POINTS[c // (len(SOLVERS) * len(STAGES)) % len(COLD_POINTS)]
            instance_seed = c
        else:
            stages = STAGES[sweeps_seen % len(STAGES)]
            instance_seed = SWEEP_POOL + sweeps_seen
            sweeps_seen += 1
        spec = {
            "scenario": "edge-hub-cloud",
            "seed": instance_seed,
            "params": {"stages": stages},
        }
        application, platform = api.make_scenario(
            spec["scenario"], seed=spec["seed"], params=spec["params"]
        )
        grid = latency_grid(application, platform, num_points=5)
        if kind == "cold":
            fields = {
                "solver": solver,
                "instance": spec,
                "threshold": grid[point],
                "seed": rng.randrange(1 << 20),
                "include_mapping": True,
            }
        else:
            fields = {
                "plan": {
                    "schema": 1,
                    "kind": "sweep",
                    "instances": [spec],
                    "solvers": [SWEEP_SOLVER],
                    "thresholds": grid[1 : 1 + SWEEP_POINTS],
                },
                "seed": rng.randrange(1 << 20),
                "include_mapping": True,
            }
        request = Request(len(requests), t, kind, fields, (application, platform))
        requests.append(request)
        if kind == "cold":
            colds.append(request)
            cold_dues.append(t)
    return requests


# ----------------------------------------------------------------------
# the daemon
# ----------------------------------------------------------------------
class Daemon:
    """One ``repro serve`` process with a fresh store; times spawn → pong."""

    def __init__(self, directory: Path, tag: str, *, traced: bool = False) -> None:
        self.socket = str(directory / f"{tag}.sock")
        self.trace_path = directory / f"{tag}.trace.json"
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--socket", self.socket,
            "--store", str(directory / f"{tag}.sqlite"),
            "--workers", str(WORKERS),
        ]
        env = child_env()
        if traced:
            cmd += ["--preload", "perfbench.tracehook"]
            env["PERFBENCH_TRACE_OUT"] = str(self.trace_path)
        self._stderr = open(directory / f"{tag}.stderr", "w", encoding="utf-8")
        start = perf_counter()
        self.proc = subprocess.Popen(
            cmd,
            cwd=ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=self._stderr,
        )
        try:
            self._await_pong(start)
        except BaseException:
            self.stop()
            raise
        self.setup_s = perf_counter() - start

    def _await_pong(self, start: float) -> None:
        client = ServiceClient(self.socket, timeout=5.0)
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with code {self.proc.returncode} before serving"
                )
            try:
                client.ping()
                return
            except OSError:
                if perf_counter() - start > 60:
                    raise RuntimeError("daemon did not answer ping within 60 s")
                time.sleep(0.002)

    def client(self) -> ServiceClient:
        return ServiceClient(self.socket, timeout=60.0)

    def stop(self) -> None:
        """Drain and wait; escalate to terminate/kill if it hangs."""
        try:
            if self.proc.poll() is None:
                try:
                    self.client().drain()
                except (ReproError, OSError):
                    self.proc.terminate()
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(timeout=30)
        finally:
            self._stderr.close()

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()


def drive(
    daemon: Daemon, schedule: list[Request], tracer: Tracer | None = None
) -> tuple[float, list[Record]]:
    """Send the schedule open-loop from ``SENDERS`` threads.

    Returns the schedule origin (``perf_counter`` time of due 0) and one
    record per request.
    """
    client = daemon.client()
    records = [Record(r) for r in schedule]
    next_index = itertools.count()
    lock = threading.Lock()
    origin = perf_counter() + 0.05

    def sender() -> None:
        while True:
            with lock:
                i = next(next_index)
            if i >= len(records):
                return
            rec = records[i]
            delay = origin + rec.request.due - perf_counter()
            if delay > 0:
                time.sleep(delay)
            span = None
            if tracer is not None:
                tracer.state().rid = f"r{i}"
                span = tracer.begin("client.request", kind=rec.request.kind)
            rec.sent = perf_counter()
            try:
                rec.events = list(
                    client.submit(rec.request.verb, request_id=f"r{i}", **rec.request.fields)
                )
            except (ReproError, OSError) as exc:
                rec.error = f"{type(exc).__name__}: {exc}"
            rec.end = perf_counter()
            if span is not None:
                tracer.end(span)

    threads = [threading.Thread(target=sender) for _ in range(SENDERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return origin, records


# ----------------------------------------------------------------------
# checks + metrics
# ----------------------------------------------------------------------
def _answer(outcome: dict[str, Any]) -> tuple[Any, ...]:
    keys = ("ok", "solver", "threshold", "latency", "failure_probability",
            "optimal", "mapping", "error_kind")
    return tuple(json.dumps(outcome.get(k), sort_keys=True) for k in keys)


def _check(out: Outcome, schedule: list[Request], records: list[Record], stats: dict) -> None:
    out.attempted += len(records)
    broken = [r for r in records if r.error or r.done is None]
    out.check(
        "every request ends with a done event",
        not broken,
        "; ".join(f"r{r.request.index}: {r.error}" for r in broken[:3]),
        failures=len(broken),
    )
    failed_outcomes = [
        (r, o) for r in records for o in r.outcomes
        if not o["ok"] and o.get("error_kind") != "infeasible"
    ]
    out.check(
        "no outcome fails other than as infeasible",
        not failed_outcomes,
        "; ".join(o.get("error", "") for _, o in failed_outcomes[:3]),
        failures=len(failed_outcomes),
    )
    by_index = {r.request.index: r for r in records}
    mismatched = []
    wrong_cache = []
    for rec in records:
        if rec.done is None:
            continue
        expect_cached = rec.request.kind == "warm"
        if any(o["cached"] != expect_cached for o in rec.outcomes):
            wrong_cache.append(rec)
        if expect_cached:
            original = by_index[rec.request.original.index]
            if [_answer(o) for o in rec.outcomes] != [_answer(o) for o in original.outcomes]:
                mismatched.append(rec)
    out.check(
        "cold answers are fresh and warm answers come from the store",
        not wrong_cache,
        failures=len(wrong_cache),
    )
    out.check(
        "every warm answer equals its cold original bit for bit",
        not mismatched,
        failures=len(mismatched),
    )
    problems = []
    for rec in records:
        if rec.request.kind == "warm":
            continue
        application, platform = rec.request.instance
        for o in rec.outcomes:
            if o["ok"]:
                problem = rescore(
                    application, platform, o["threshold"],
                    mapping_from_dict(o["mapping"]), o["latency"], o["failure_probability"],
                )
                if problem:
                    problems.append(problem)
    out.check(
        "every fresh answer re-scores within 1e-9 and meets its threshold",
        not problems,
        "; ".join(problems[:3]),
        failures=len(problems),
    )
    warm = sum(r.kind == "warm" for r in schedule)
    lookups = sum(
        len(r.fields["plan"]["thresholds"]) if r.kind == "sweep" else 1
        for r in schedule
    )
    store = stats.get("store", {})
    out.check(
        "store hit ratio equals the scheduled warm share exactly",
        store.get("hits") == warm and store.get("hits", 0) + store.get("misses", 0) == lookups,
        f"hits={store.get('hits')} misses={store.get('misses')} expected {warm}/{lookups}",
    )


@dataclass
class Served:
    """One schedule played against one daemon."""

    origin: float
    records: list[Record]
    stats: dict[str, Any]
    rss_mb: float
    #: host-speed reference samples taken while no request was in flight
    speed: list[tuple[float, float]]

    def latencies(
        self, kind: str, *, nominal: bool = True, solver: str | None = None
    ) -> list[float]:
        """Due-to-terminal seconds of the completed ``kind`` requests
        (of ``solver`` only, if given), at nominal host speed unless
        ``nominal`` is False."""
        out = []
        for r in self.records:
            if r.request.kind != kind or r.done is None:
                continue
            if solver is not None and r.request.fields.get("solver") != solver:
                continue
            due = self.origin + r.request.due
            scale = factor_at(self.speed, due, ELASTICITY) if nominal else 1.0
            out.append((r.end - due) * scale)
        return out


def _serve(daemon: Daemon, schedule: list[Request], tracer: Tracer | None = None) -> Served:
    with Sampler() as sampler:
        origin, records = drive(daemon, schedule, tracer)
    busy = [(origin + r.request.due, r.end) for r in records]
    speed = idle_samples(sampler.samples, busy)
    if not speed:
        raise RuntimeError("no host-speed sample fell between requests")
    stats = daemon.client().stats()
    rss = proc_peak_rss_mb(daemon.proc.pid)
    return Served(origin, records, stats, rss, speed)


def _daemon_setup_s(directory: Path, tags: "itertools.count[int]") -> float:
    with Daemon(directory, f"setup{next(tags)}") as daemon:
        return daemon.setup_s


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome(NAME)
    # a traced run replays one schedule of half the length twice:
    # untraced, then traced
    schedule = build_schedule(seed, seconds / 2 if trace else seconds)
    directory = run_dir()
    try:
        if trace:
            return _run_traced(out, schedule, directory)
        tags = itertools.count()
        setups = setup_times(lambda: _daemon_setup_s(directory, tags))
        with Daemon(directory, "main") as daemon:
            served = _serve(daemon, schedule)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    origin, records, stats = served.origin, served.records, served.stats
    _check(out, schedule, records, stats)

    cold = served.latencies("cold")
    warm = served.latencies("warm")
    sweeps = served.latencies("sweep")
    solves = cold + warm
    met = sum(
        1
        for r in records
        if r.done is not None
        and r.done["failed"] == 0
        and r.end - (origin + r.request.due) <= SLO_S[r.request.verb]
    )
    reliability = [
        nines(o["failure_probability"]) for r in records for o in r.outcomes if o["ok"]
    ]
    last = max(r.end for r in records)
    tail_q, tail = tail_percentile(solves)
    values = {
        "setup_s": (median(setups), len(setups)),
        "latency_p50_ms": (percentile(cold, 50) * 1e3, len(cold)),
        "overhead_p50_ms": (percentile(warm, 50) * 1e3, len(warm)),
        "goodput_per_s": (met / (last - origin), len(records)),
        "fp_nines": (sum(reliability) / len(reliability), len(reliability)),
        "peak_rss_mb": (served.rss_mb, 1),
    }
    out.metrics = catalog_metrics(END_TO_END, values)
    lag = [r.sent - (origin + r.request.due) for r in records]
    raw_cold = served.latencies("cold", nominal=False)
    raw_warm = served.latencies("warm", nominal=False)
    greedy = served.latencies("cold", solver="greedy-min-fp")
    local = served.latencies("cold", solver="local-search-min-fp")
    out.details = catalog_metrics(
        (
            ("solve_p50_ms", "ms", "lower"),
            ("solve_tail_ms", "ms", "lower"),
            ("cold_solve_p50_ms", "ms", "lower"),
            ("cold_greedy_p50_ms", "ms", "lower"),
            ("cold_local_search_p50_ms", "ms", "lower"),
            ("warm_solve_p50_ms", "ms", "lower"),
            ("raw_cold_solve_p50_ms", "ms", "lower"),
            ("raw_warm_solve_p50_ms", "ms", "lower"),
            ("sweep_p50_ms", "ms", "lower"),
            ("slo_met_share", "ratio", "higher"),
            ("error_share", "ratio", "lower"),
            ("loadgen.lag_p95_ms", "ms", "lower"),
        ),
        {
            "solve_p50_ms": (percentile(solves, 50) * 1e3, len(solves)),
            "solve_tail_ms": (tail * 1e3, len(solves)),
            "cold_solve_p50_ms": values["latency_p50_ms"],
            "cold_greedy_p50_ms": (percentile(greedy, 50) * 1e3, len(greedy)),
            "cold_local_search_p50_ms": (percentile(local, 50) * 1e3, len(local)),
            "warm_solve_p50_ms": values["overhead_p50_ms"],
            "raw_cold_solve_p50_ms": (percentile(raw_cold, 50) * 1e3, len(raw_cold)),
            "raw_warm_solve_p50_ms": (percentile(raw_warm, 50) * 1e3, len(raw_warm)),
            "sweep_p50_ms": (percentile(sweeps, 50) * 1e3, len(sweeps)),
            "slo_met_share": (met / len(records), len(records)),
            "error_share": (out.failed / max(out.attempted, 1), out.attempted),
            "loadgen.lag_p95_ms": (percentile(lag, 95) * 1e3, len(lag)),
        },
    )
    out.extra["solve_tail_percentile"] = tail_q
    out.extra["requests"] = {
        kind: sum(r.kind == kind for r in schedule) for kind in ("cold", "warm", "sweep")
    }
    out.extra["store"] = stats.get("store")
    out.extra["idle_speed_samples"] = len(served.speed)
    return out


def _response_values(origin: float, records: list[Record]) -> dict[str, tuple[float, int]]:
    """Per-layer readings from the untraced run's own response fields."""
    ok = [r for r in records if r.done is not None]
    lag = [r.sent - (origin + r.request.due) for r in records]
    waits = [r.done["queue_wait"] for r in ok]
    rtt = [
        (r.end - r.sent) - (r.done["queue_wait"] + r.done["elapsed"])
        for r in ok
        if r.request.verb == "solve"
    ]

    def batch_overhead(kind: str) -> list[float]:
        return [
            r.done["elapsed"] - sum(o["elapsed"] for o in r.outcomes if not o["cached"])
            for r in ok
            if r.request.kind == kind
        ]

    cold, warm = batch_overhead("cold"), batch_overhead("warm")
    return {
        "loadgen.lag_p95_ms": (percentile(lag, 95) * 1e3, len(lag)),
        "service.rtt_overhead_p50_ms": (percentile(rtt, 50) * 1e3, len(rtt)),
        "service.queue_wait_p50_ms": (percentile(waits, 50) * 1e3, len(waits)),
        "service.queue_wait_p95_ms": (percentile(waits, 95) * 1e3, len(waits)),
        "engine.batch.overhead_cold_p50_ms": (percentile(cold, 50) * 1e3, len(cold)),
        "engine.batch.overhead_warm_p50_ms": (percentile(warm, 50) * 1e3, len(warm)),
    }


def _cold_breakdown(
    served: Served, spans: list[dict[str, Any]], reference_ms: float
) -> dict[str, tuple[float, int]]:
    """Where a traced cold solve's time went, per component (p50 each,
    at nominal host speed like ``reference_ms``).

    Components tile the client-observed latency: loadgen lag, protocol
    (round trip minus server time), queue wait, engine + store (job
    time minus solver), solver (registry solve spans of the request).
    """
    solver_s: dict[str, float] = {}
    for row in spans:
        if row["name"] == "engine.registry.solve" and row["rid"] is not None:
            solver_s[row["rid"]] = solver_s.get(row["rid"], 0.0) + row["end"] - row["start"]
    parts: dict[str, list[float]] = {
        "lag": [], "protocol": [], "queue": [], "engine_store": [], "solver": [],
    }
    for r in served.records:
        if r.request.kind != "cold" or r.done is None:
            continue
        due = served.origin + r.request.due
        scale = factor_at(served.speed, due, ELASTICITY)
        solver = solver_s.get(f"r{r.request.index}", 0.0)
        parts["lag"].append((r.sent - due) * scale)
        parts["protocol"].append(
            ((r.end - r.sent) - r.done["queue_wait"] - r.done["elapsed"]) * scale
        )
        parts["queue"].append(r.done["queue_wait"] * scale)
        parts["engine_store"].append((r.done["elapsed"] - solver) * scale)
        parts["solver"].append(solver * scale)
    values = {
        f"service.cold.{name}_p50_ms": (percentile(v, 50) * 1e3, len(v))
        for name, v in parts.items()
    }
    total = sum(value for value, _ in values.values())
    values["service.cold.breakdown_error_share"] = (
        abs(total / reference_ms - 1.0),
        len(parts["solver"]),
    )
    return values


def _run_traced(out: Outcome, schedule: list[Request], directory: Path) -> Outcome:
    with Daemon(directory, "plain") as daemon:
        plain = _serve(daemon, schedule)
    tracer = Tracer()
    with Daemon(directory, "traced", traced=True) as daemon:
        traced = _serve(daemon, schedule, tracer)
    with open(daemon.trace_path, encoding="utf-8") as fh:
        server = json.load(fh)
    _check(out, schedule, plain.records, plain.stats)
    _check(out, schedule, traced.records, traced.stats)

    def cold_p50_ms(served: Served, nominal: bool) -> float:
        return percentile(served.latencies("cold", nominal=nominal), 50) * 1e3

    values = layer_values(server["spans"], server["counters"])
    values.update(_response_values(plain.origin, plain.records))
    values.update(_cold_breakdown(traced, server["spans"], cold_p50_ms(plain, True)))
    error, _ = values["service.cold.breakdown_error_share"]
    out.check(
        "the traced cold-solve breakdown sums to the untraced cold p50 within 10%",
        error <= BREAKDOWN_TOLERANCE,
        f"off by {error:.1%}",
    )
    values["trace.overhead_share"] = (
        cold_p50_ms(traced, True) / cold_p50_ms(plain, True) - 1.0,
        len(traced.records),
    )
    out.metrics = catalog_metrics(PER_LAYER, values)
    out.extra["self_time"] = self_time_table(server["spans"])
    client = tracer.export()
    RUN_DIR.mkdir(exist_ok=True)
    with open(RUN_DIR / f"trace-{NAME}.json", "w", encoding="utf-8") as fh:
        json.dump(chrome_trace({0: client["spans"], daemon.proc.pid: server["spans"]}), fh)
    return out
