"""Spans, counters and the layer probes of the traced run.

The benchmark measures layers from its own files: :class:`Probes`
wraps public functions of each layer module, records a span per call
(name, start, end, parent from a per-thread stack, request id) and a
few counters, and puts every original back on :meth:`Probes.restore`.
The untraced run installs nothing.  Spans stay in memory until the run
ends; :func:`chrome_trace` writes them as Chrome trace-event JSON.
"""

from __future__ import annotations

import functools
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Iterable, Sequence

#: spans whose time is solver work (everything else is "above the solver")
SOLVER_SPANS = ("engine.registry.solve", "algorithms.bicriteria.exhaustive.sweep")

#: modules whose scalar objective calls are counted at the call site
_SCALAR_SITES = (
    "repro.algorithms.heuristics.greedy",
    "repro.algorithms.heuristics.local_search",
    "repro.algorithms.heuristics.annealing",
    "repro.algorithms.heuristics.single_interval",
)
_SCALAR_NAMES = ("latency", "failure_probability", "evaluate")


class Span:
    __slots__ = ("name", "start", "end", "parent", "rid", "tid", "attrs")

    def __init__(self, name, start, parent, rid, tid, attrs):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rid = rid
        self.tid = tid
        self.attrs = attrs


class _ThreadState:
    """Per-thread tracing state (a plain object, readable from any thread
    once the run is over)."""

    def __init__(self) -> None:
        self.stack: list[Span] = []
        self.rid: str | None = None
        self.in_step = False
        self.counters: dict[str, float] = defaultdict(float)
        self.caches: list[Any] = []
        self.tid = threading.get_ident()


class Tracer:
    """In-memory spans and counters for one process (thread-safe)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []

    def state(self) -> "_ThreadState":
        """This thread's span stack, request id, counters and caches."""
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(st)
        return st

    def begin(self, name: str, **attrs: Any) -> Span:
        st = self.state()
        span = Span(
            name,
            perf_counter(),
            st.stack[-1] if st.stack else None,
            st.rid,
            st.tid,
            attrs,
        )
        self.spans.append(span)
        st.stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = perf_counter()
        stack = self.state().stack
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # an abandoned generator closes out of order
            stack.remove(span)

    def count(self, name: str, value: float = 1) -> None:
        self.state().counters[name] += value

    def harvest_caches(self) -> None:
        """Fold the hit/miss counters of finished evaluation caches."""
        st = self.state()
        for cache in st.caches:
            st.counters["core.metrics.cache_hits"] += cache.hits
            st.counters["core.metrics.cache_misses"] += cache.misses
        st.caches.clear()

    def export(self) -> dict[str, Any]:
        """Plain-data snapshot: spans with parent indices, summed counters."""
        with self._lock:
            threads = list(self._threads)
        counters: dict[str, float] = defaultdict(float)
        for st in threads:
            for cache in st.caches:
                counters["core.metrics.cache_hits"] += cache.hits
                counters["core.metrics.cache_misses"] += cache.misses
            for name, value in st.counters.items():
                counters[name] += value
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": index.get(id(s.parent)) if s.parent else None,
                "rid": s.rid,
                "tid": s.tid,
                "attrs": s.attrs,
            }
            for s in self.spans
        ]
        return {"spans": rows, "counters": dict(counters)}


# ----------------------------------------------------------------------
# probes
# ----------------------------------------------------------------------
class Probes:
    """Wrap the public functions of every measured layer; undo on restore."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[Any, str, Any]] = []

    def _patch(self, owner: Any, attr: str, wrap: Callable[[Any], Any]) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, wrap(original))
        self._saved.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Probes":
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()

    # -- wrappers ------------------------------------------------------
    def _span(self, name: str) -> Callable[[Any], Any]:
        tracer = self.tracer

        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span = tracer.begin(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.end(span)

            return wrapper

        return wrap

    def _store_get(self, fn):
        tracer = self.tracer

        @functools.wraps(fn)
        def get(self_, key):
            span = tracer.begin("engine.store.get")
            try:
                record = fn(self_, key)
            finally:
                tracer.end(span)
            span.attrs["hit"] = record is not None
            return record

        return get

    def _block_span(self, name: str) -> Callable[[Any], Any]:
        tracer = self.tracer

        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(self_, block):
                span = tracer.begin(name, rows=len(block))
                try:
                    return fn(self_, block)
                finally:
                    tracer.end(span)

            return wrapper

        return wrap

    def _registry_solve(self, fn):
        tracer = self.tracer

        @functools.wraps(fn)
        def solve(name, *args, **kwargs):
            span = tracer.begin("engine.registry.solve", solver=name)
            try:
                result = fn(name, *args, **kwargs)
            finally:
                tracer.end(span)
                tracer.harvest_caches()
            steps = result.extras.get("steps")
            if steps is not None:
                span.attrs["steps"] = steps
            return result

        return solve

    def _exhaustive_sweep(self, fn):
        tracer = self.tracer

        @functools.wraps(fn)
        def sweep(*args, **kwargs):
            span = tracer.begin("algorithms.bicriteria.exhaustive.sweep")
            try:
                results = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            found = [r for r in results if r is not None]
            if found:
                span.attrs["explored"] = found[0].extras.get("explored", 0)
            return results

        return sweep

    def _generator_span(self, name: str):
        tracer = self.tracer

        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span = tracer.begin(name)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    tracer.end(span)

            return wrapper

        return wrap

    def _counted(self, fn):
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count("core.metrics.scalar_calls")
            return fn(*args, **kwargs)

        return wrapper

    def _cache_init(self, fn):
        tracer = self.tracer

        @functools.wraps(fn)
        def __init__(self_, *args, **kwargs):
            fn(self_, *args, **kwargs)
            tracer.state().caches.append(self_)

        return __init__

    def _kernel_step(self, fn):
        tracer = self.tracer

        @functools.wraps(fn)
        def step(self_):
            st = tracer.state()
            st.in_step = True
            start = perf_counter()
            try:
                return fn(self_)
            finally:
                st.in_step = False
                st.counters["simulation.kernel.steps"] += 1
                st.counters["simulation.kernel.step_s"] += perf_counter() - start

        return step

    def _resolve_mapping(self, fn):
        tracer = self.tracer

        @functools.wraps(fn)
        def resolve_mapping(*args, **kwargs):
            in_step = tracer.state().in_step
            span = tracer.begin("simulation.dynamic.resolve_mapping", in_step=in_step)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(span)

        return resolve_mapping

    def _service_job(self, fn):
        tracer = self.tracer

        @functools.wraps(fn)
        def _execute_job(self_, job, loop):
            st = tracer.state()
            st.rid = job.rid
            span = tracer.begin("service.job", kind=job.request.get("kind"))
            try:
                return fn(self_, job, loop)
            finally:
                tracer.end(span)
                st.rid = None

        return _execute_job

    # -- installation --------------------------------------------------
    def install(self, *, scalar_calls: bool = True) -> "Probes":
        """Wrap every layer, the daemon's job boundary included.

        ``scalar_calls=False`` leaves the heuristics' scalar objective
        calls uncounted: the per-call wrapper adds about 20% to a cold
        greedy solve, too much for the daemon, whose traced cold-solve
        breakdown must account for the untraced latency.
        """
        import importlib

        from repro.algorithms.bicriteria import exhaustive
        from repro.core.metrics import EvaluationCache
        from repro.core.metrics_bulk import BulkEvaluator
        from repro.engine import batch, registry, store, sweeps
        from repro.service import server
        from repro.simulation import dynamic, kernel

        self._patch(registry, "solve", self._registry_solve)
        self._patch(batch, "solve", self._registry_solve)
        self._patch(exhaustive, "exhaustive_sweep_min_fp", self._exhaustive_sweep)
        self._patch(sweeps, "iter_sweep", self._generator_span("engine.sweeps.iter_sweep"))
        self._patch(store.ResultStore, "get", self._store_get)
        for method in ("put", "peek"):
            self._patch(store.ResultStore, method, self._span(f"engine.store.{method}"))
        for method in ("latencies", "failure_probabilities", "evaluate_block"):
            self._patch(BulkEvaluator, method, self._block_span(f"core.metrics_bulk.{method}"))
        self._patch(EvaluationCache, "__init__", self._cache_init)
        for module_name in _SCALAR_SITES if scalar_calls else ():
            module = importlib.import_module(module_name)
            for name in _SCALAR_NAMES:
                if hasattr(module, name):
                    self._patch(module, name, self._counted)
        self._patch(kernel.Simulator, "step", self._kernel_step)
        self._patch(dynamic, "resolve_mapping", self._resolve_mapping)
        self._patch(server, "iter_sweep", self._generator_span("engine.sweeps.iter_sweep"))
        self._patch(server.SolverService, "_execute_job", self._service_job)
        return self


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def self_times(spans: Sequence[dict[str, Any]]) -> list[float]:
    """Per-span self time: duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for row in spans:
        if row["parent"] is not None:
            children[row["parent"]].append((row["start"], row["end"]))
    out = []
    for i, row in enumerate(spans):
        out.append(
            (row["end"] - row["start"])
            - covered(row["start"], row["end"], children.get(i, ()))
        )
    return out


def covered(
    start: float, end: float, intervals: Iterable[tuple[float, float]]
) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def ancestor(spans: Sequence[dict[str, Any]], i: int, prefix: str) -> int | None:
    """Index of the nearest ancestor of span ``i`` whose name starts
    with ``prefix`` (None at the root)."""
    parent = spans[i]["parent"]
    while parent is not None:
        if spans[parent]["name"].startswith(prefix):
            return parent
        parent = spans[parent]["parent"]
    return None


def layer_values(
    spans: Sequence[dict[str, Any]], counters: dict[str, float]
) -> dict[str, tuple[float, int]]:
    """Per-layer metrics derivable from spans and counters alone.

    Values are ``(value, samples)``; service-only and workload-level
    readings (queue waits, overhead share) are added by the workloads.
    """
    from .common import percentile

    out: dict[str, tuple[float, int]] = {}
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, row in enumerate(spans):
        by_name[row["name"]].append(i)

    def dur(i: int) -> float:
        return spans[i]["end"] - spans[i]["start"]

    def p50_ms(indices: Sequence[int]) -> tuple[float, int]:
        if not indices:
            return 0.0, 0
        return percentile([dur(i) for i in indices], 50) * 1e3, len(indices)

    gets = by_name["engine.store.get"]
    puts = by_name["engine.store.put"]
    hits = sum(1 for i in gets if spans[i]["attrs"].get("hit"))
    out["engine.store.gets"] = (len(gets), len(gets))
    out["engine.store.puts"] = (len(puts), len(puts))
    out["engine.store.get_p50_ms"] = p50_ms(gets)
    out["engine.store.put_p50_ms"] = p50_ms(puts)
    out["engine.store.hit_ratio"] = (hits / len(gets) if gets else 0.0, len(gets))

    solves = by_name["engine.registry.solve"]
    out["engine.registry.solves"] = (len(solves), len(solves))
    by_solver: dict[str, list[int]] = defaultdict(list)
    for i in solves:
        by_solver[spans[i]["attrs"]["solver"]].append(i)
    for solver in ("greedy-min-fp", "local-search-min-fp", "anneal-min-fp"):
        out[f"engine.registry.{solver}.solve_p50_ms"] = p50_ms(by_solver[solver])

    def busy(indices: Sequence[int]) -> tuple[float, int]:
        return sum(dur(i) for i in indices), len(indices)

    def steps(indices: Sequence[int]) -> int:
        return sum(spans[i]["attrs"].get("steps", 0) for i in indices)

    out["algorithms.heuristics.greedy.busy_s"] = busy(by_solver["greedy-min-fp"])
    local = by_solver["local-search-min-fp"]
    out["algorithms.heuristics.local_search.busy_s"] = busy(local)
    out["algorithms.heuristics.local_search.steps"] = (steps(local), len(local))
    anneal = by_solver["anneal-min-fp"]
    anneal_busy, _ = busy(anneal)
    out["algorithms.heuristics.anneal.busy_s"] = busy(anneal)
    out["algorithms.heuristics.anneal.proposals_per_s"] = (
        steps(anneal) / anneal_busy if anneal_busy else 0.0,
        len(anneal),
    )
    exhaustive = by_name["algorithms.bicriteria.exhaustive.sweep"]
    out["algorithms.bicriteria.exhaustive.busy_s"] = busy(
        exhaustive + by_solver["exhaustive-min-fp"]
    )
    out["algorithms.bicriteria.exhaustive.explored"] = (
        sum(spans[i]["attrs"].get("explored", 0) for i in exhaustive),
        len(exhaustive),
    )

    # bulk scoring: outermost calls only (evaluate_block calls the other two)
    bulk = [
        i
        for name in (
            "core.metrics_bulk.latencies",
            "core.metrics_bulk.failure_probabilities",
            "core.metrics_bulk.evaluate_block",
        )
        for i in by_name[name]
        if ancestor(spans, i, "core.metrics_bulk.") is None
    ]
    rows = sum(spans[i]["attrs"]["rows"] for i in bulk)
    bulk_busy = sum(dur(i) for i in bulk)
    out["core.metrics_bulk.calls"] = (len(bulk), len(bulk))
    out["core.metrics_bulk.rows"] = (rows, len(bulk))
    out["core.metrics_bulk.busy_s"] = (bulk_busy, len(bulk))
    out["core.metrics_bulk.rows_per_s"] = (
        rows / bulk_busy if bulk_busy else 0.0,
        len(bulk),
    )
    cache_hits = counters.get("core.metrics.cache_hits", 0.0)
    cache_lookups = cache_hits + counters.get("core.metrics.cache_misses", 0.0)
    out["core.metrics.cache_hit_ratio"] = (
        cache_hits / cache_lookups if cache_lookups else 0.0,
        int(cache_lookups),
    )
    scalar = counters.get("core.metrics.scalar_calls", 0)
    out["core.metrics.scalar_calls"] = (scalar, int(scalar))

    resolves = by_name["simulation.dynamic.resolve_mapping"]
    kernel_steps = counters.get("simulation.kernel.steps", 0)
    # re-solves run inside a kernel step; the DES's own time excludes them
    kernel_busy = counters.get("simulation.kernel.step_s", 0.0) - sum(
        dur(i) for i in resolves if spans[i]["attrs"].get("in_step")
    )
    out["simulation.kernel.steps"] = (kernel_steps, int(kernel_steps))
    out["simulation.kernel.busy_s"] = (kernel_busy, int(kernel_steps))
    out["simulation.kernel.steps_per_s"] = (
        kernel_steps / kernel_busy if kernel_busy > 0 else 0.0,
        int(kernel_steps),
    )
    out["simulation.dynamic.resolve_p50_ms"] = p50_ms(resolves)

    sweeps = by_name["engine.sweeps.iter_sweep"]
    solver_time: dict[int, float] = defaultdict(float)
    for name in SOLVER_SPANS:
        for i in by_name[name]:
            owner = ancestor(spans, i, "engine.sweeps.iter_sweep")
            if owner is not None:
                solver_time[owner] += dur(i)
    out["engine.sweeps.overhead_s"] = (
        sum(dur(i) - solver_time[i] for i in sweeps),
        len(sweeps),
    )
    return out


def self_time_table(spans: Sequence[dict[str, Any]]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total and self seconds (report only)."""
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for row, own in zip(spans, self_times(spans)):
        entry = table[row["name"]]
        entry["calls"] += 1
        entry["total_s"] += row["end"] - row["start"]
        entry["self_s"] += own
    return dict(table)


def chrome_trace(processes: dict[int, Sequence[dict[str, Any]]]) -> dict[str, Any]:
    """Chrome trace-event JSON (complete events, microseconds)."""
    events = []
    for pid, spans in processes.items():
        for row in spans:
            args = dict(row["attrs"])
            if row["rid"] is not None:
                args["rid"] = row["rid"]
            events.append(
                {
                    "name": row["name"],
                    "ph": "X",
                    "ts": row["start"] * 1e6,
                    "dur": (row["end"] - row["start"]) * 1e6,
                    "pid": pid,
                    "tid": row["tid"],
                    "args": args,
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
