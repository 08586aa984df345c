"""Streaming batch executor: many solver queries as a resilient service.

Turns solving into a batched service instead of one-off function calls:
a list of :class:`BatchTask` records (any mix of instances, solvers and
thresholds) is executed either serially or sharded across
``multiprocessing`` workers, with

* **streaming results** — :func:`iter_batch` yields
  :class:`BatchOutcome`\\ s as tasks finish (``imap_unordered`` under the
  hood, with an ordering buffer restoring input order by default, and an
  optional ``max_buffered`` bound switching to windowed dispatch so one
  stalled task cannot grow the buffer without limit), so long grids
  produce output from the first completion instead of the last;
* **fault isolation** — *every* task failure (infeasible threshold,
  domain violation, crash inside a solver, timeout) is captured as a
  failed outcome with a structured
  :class:`~repro.engine.policy.ErrorKind`; one bad task never aborts a
  mixed batch;
* **retry/timeout policies** — a :class:`~repro.engine.policy.BatchPolicy`
  gives every task a wall-clock budget and bounded retries with
  exponential backoff (transient kinds only: deterministic verdicts
  like infeasibility are never retried);
* **deterministic seeding** — randomised solvers receive a per-task seed
  derived as ``base_seed + task_index``, so results are reproducible and
  *identical* between serial, parallel and streamed runs (a
  machine-checked property);
* **result reuse** — with a :class:`~repro.engine.store.ResultStore`,
  outcomes of deterministic tasks are content-addressed by
  :func:`~repro.engine.store.instance_key` and served from the store on
  repeat queries (zero solver invocations on a warm grid).

Typical uses: solving a whole experiment grid of random instances, or
sweeping many threshold queries over one instance to trace a frontier
(see :func:`threshold_sweep` and :mod:`repro.analysis.frontier`).

On top of flat batches the module provides a **dependency-aware task
graph** (:class:`GraphNode` / :func:`iter_graph` / :func:`run_graph`):
nodes carry ``depends_on`` edges and are dispatched to the same
multiprocessing pool the moment their dependencies resolve, so
independent chains interleave freely while ordered work (e.g. the sweep
engine's warm-start chains, where point ``i`` seeds point ``i+1``) stays
ordered.  Per-node deterministic seeding, fault isolation and store
reuse all carry over from the flat batch path unchanged.
"""

from __future__ import annotations

import heapq
import multiprocessing
import queue as _queue
import time
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from ..algorithms.result import SolverResult
from ..core.application import PipelineApplication
from ..core.platform import Platform
from ..core.serialization import (
    solver_result_from_dict,
    solver_result_to_dict,
)
from ..exceptions import SolverError
from .policy import BatchPolicy, ErrorKind, classify_exception, run_with_timeout
from .registry import get_solver, solve
from .store import ResultStore, instance_key

__all__ = [
    "BatchTask",
    "BatchOutcome",
    "GraphNode",
    "iter_batch",
    "run_batch",
    "iter_graph",
    "run_graph",
    "threshold_sweep",
]


@dataclass(frozen=True)
class BatchTask:
    """One solver invocation inside a batch."""

    solver: str
    application: PipelineApplication
    platform: Platform
    threshold: float | None = None
    opts: Mapping[str, Any] = field(default_factory=dict)
    tag: str = ""


@dataclass(frozen=True)
class BatchOutcome:
    """Result of one :class:`BatchTask`.

    Exactly one of ``result`` and ``error`` is set; a failed task
    additionally carries the structured ``error_kind`` (so aggregators
    branch on an enum, not on exception strings) next to the legacy
    ``error`` string (exception type + message).  The originating
    ``task`` rides along so aggregators (reports, Monte-Carlo
    cross-checks) can reach the instance without tracking the input
    list.
    """

    index: int
    solver: str
    tag: str
    result: SolverResult | None
    error: str | None
    elapsed: float
    task: BatchTask
    error_kind: ErrorKind | None = None
    attempts: int = 1
    cached: bool = False

    @property
    def ok(self) -> bool:
        """True when the task produced a result."""
        return self.result is not None


def _effective_opts(
    task: BatchTask, index: int, base_seed: int | None
) -> dict[str, Any]:
    """Task options with the deterministic per-task seed injected."""
    opts = dict(task.opts)
    if (
        base_seed is not None
        and get_solver(task.solver).seeded
        and "seed" not in opts
    ):
        opts["seed"] = base_seed + index
    return opts


def _execute(
    payload: tuple[int, BatchTask, dict[str, Any], BatchPolicy]
) -> BatchOutcome:
    """Run one task (top-level so multiprocessing can pickle it).

    All failure handling lives here: every exception raised by the
    solver (not just library errors — a ``TypeError`` from bad opts, a
    timeout, any bug) is captured as a failed outcome with its
    :class:`ErrorKind`, and transient kinds are retried per the policy.
    Process-fatal signals (``KeyboardInterrupt``/``SystemExit``)
    propagate.
    """
    index, task, opts, policy = payload
    start = time.perf_counter()
    attempt = 0
    while True:
        attempt += 1
        result: SolverResult | None = None
        error: str | None = None
        kind: ErrorKind | None = None
        try:
            # through the registry front door, so every dispatch
            # validation (threshold shape, platform domain) applies
            # identically to batched and direct solves
            result = run_with_timeout(
                lambda: solve(
                    task.solver,
                    task.application,
                    task.platform,
                    task.threshold,
                    **opts,
                ),
                policy.timeout,
            )
        except Exception as exc:
            kind = classify_exception(exc)
            error = f"{type(exc).__name__}: {exc}"
            if policy.should_retry(kind, attempt):
                delay = policy.delay(attempt)
                if delay > 0:
                    time.sleep(delay)
                continue
        return BatchOutcome(
            index=index,
            solver=task.solver,
            tag=task.tag,
            result=result,
            error=error,
            elapsed=time.perf_counter() - start,
            task=task,
            error_kind=kind,
            attempts=attempt,
        )


def _prepare(
    tasks: Sequence[BatchTask], seed: int | None, policy: BatchPolicy
) -> list[tuple[int, BatchTask, dict[str, Any], BatchPolicy]]:
    """Validate a batch up front and attach effective opts + policy."""
    payloads = []
    for index, task in enumerate(tasks):
        spec = get_solver(task.solver)
        if spec.needs_threshold and task.threshold is None:
            raise SolverError(
                f"batch task {index} ({task.solver!r}) requires a threshold"
            )
        if not spec.needs_threshold and task.threshold is not None:
            raise SolverError(
                f"batch task {index} ({task.solver!r}) does not take a "
                f"threshold"
            )
        payloads.append(
            (index, task, _effective_opts(task, index, seed), policy)
        )
    return payloads


# ----------------------------------------------------------------------
# store codec: BatchOutcome <-> JSON record
# ----------------------------------------------------------------------
def _task_key(
    task: BatchTask, opts: Mapping[str, Any]
) -> str | None:
    """Store key for a task, or None when its outcome is not reusable.

    A cached result must be deterministic to replay: unseeded runs of a
    randomised solver produce a different result every time, so they
    bypass the store entirely (neither looked up nor written — a lookup
    would silently pin one arbitrary draw forever).
    """
    spec = get_solver(task.solver)
    if spec.seeded and "seed" not in opts:
        return None
    return instance_key(
        task.solver,
        task.application,
        task.platform,
        task.threshold,
        opts,
        solver_version=spec.version,
    )


def _outcome_to_record(outcome: BatchOutcome) -> dict[str, Any]:
    return {
        "solver": outcome.solver,
        "solver_version": get_solver(outcome.solver).version,
        "result": (
            solver_result_to_dict(outcome.result)
            if outcome.result is not None
            else None
        ),
        "error": outcome.error,
        "error_kind": (
            outcome.error_kind.value if outcome.error_kind else None
        ),
        "elapsed": outcome.elapsed,
        "attempts": outcome.attempts,
    }


def _record_fields(record: Mapping[str, Any]) -> dict[str, Any]:
    """The :class:`BatchOutcome` fields a stored record carries."""
    result = record.get("result")
    kind = record.get("error_kind")
    return {
        "result": solver_result_from_dict(result) if result else None,
        "error": record.get("error"),
        "elapsed": record.get("elapsed", 0.0),
        "error_kind": ErrorKind(kind) if kind else None,
        "attempts": record.get("attempts", 1),
    }


def _outcome_from_record(
    record: Mapping[str, Any], index: int, task: BatchTask
) -> BatchOutcome:
    return BatchOutcome(
        index=index,
        solver=task.solver,
        tag=task.tag,
        task=task,
        cached=True,
        **_record_fields(record),
    )


def _validated_record(
    record: Mapping[str, Any] | None, solver: str
) -> Mapping[str, Any] | None:
    """Reject a stored record whose solver version is stale.

    The version is part of the store key, so fresh stores never collide
    across versions — but a manually edited or migrated store can serve
    an old-version record under a current key.  Such a record is treated
    as a miss (the task re-solves and overwrites it) with a warning, so
    stale results are never silently replayed.  Records predating the
    version field (PR 2/3 stores) carry no version claim and pass
    unchecked.
    """
    if record is None:
        return None
    stored = record.get("solver_version")
    expected = get_solver(solver).version
    if stored is not None and stored != expected:
        warnings.warn(
            f"store record for solver {solver!r} carries version "
            f"{stored} but the registered solver is version {expected}; "
            f"ignoring the stale entry and re-solving",
            stacklevel=3,
        )
        return None
    return record


def _storable(outcome: BatchOutcome) -> bool:
    """Only deterministic verdicts are worth persisting.

    Successes and structural failures (infeasible, unsupported, invalid)
    replay identically; timeouts and crashes describe the environment of
    one run and must stay retryable on the next.
    """
    return outcome.ok or (
        outcome.error_kind is not None and outcome.error_kind.deterministic
    )


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def iter_batch(
    tasks: Iterable[BatchTask],
    *,
    workers: int | None = None,
    seed: int | None = None,
    policy: BatchPolicy | None = None,
    store: ResultStore | None = None,
    chunksize: int | None = 1,
    in_order: bool = True,
    max_buffered: int | None = None,
) -> Iterator[BatchOutcome]:
    """Execute a batch, yielding outcomes as tasks complete.

    The streaming sibling of :func:`run_batch`: the first outcome is
    observable long before the batch finishes, which is what long
    threshold grids and interactive frontends want.  Outcomes are
    *identical* to :func:`run_batch` under the same ``seed`` — only the
    delivery changes.

    Parameters
    ----------
    tasks:
        The queries to run.
    workers:
        ``None``/``0``/``1`` runs in-process; larger values shard the
        batch over a ``multiprocessing`` pool and stream completions
        through ``imap_unordered``.
    seed:
        Base seed for randomised solvers: task ``i`` runs with
        ``seed + i`` (unless its ``opts`` already pin one).  Seeding —
        and therefore every result — is independent of ``workers``.
    policy:
        Per-task :class:`~repro.engine.policy.BatchPolicy` (timeout,
        retries, backoff).  Defaults to no timeout and no retries.
    store:
        Optional :class:`~repro.engine.store.ResultStore`: deterministic
        tasks found in the store are served without invoking the solver
        (``outcome.cached`` is True), new deterministic outcomes are
        written back.
    chunksize:
        Pool chunk size (streaming responsiveness vs dispatch
        overhead); the default of 1 yields each completion as it
        happens, ``None`` picks an even split of the *dispatched* tasks
        (store hits excluded) across workers — better amortisation,
        chunkier delivery.
    in_order:
        True (default) buffers out-of-order completions and yields in
        task order; False yields in completion order (each outcome still
        carries its ``index``).
    max_buffered:
        Bound on the parallel in-order path's reordering buffer.  By
        default completions are buffered without limit, so one stalled
        task lets every faster task's outcome pile up in memory while
        the consumer waits.  Setting ``max_buffered`` switches that path
        to windowed dispatch: at most ``max_buffered + 1`` tasks are in
        flight or buffered at any moment (the ``+1`` is the stalled head
        itself), and dispatch of further tasks waits until the head
        completes — consumer-side backpressure at the cost of pipeline
        slack.  ``chunksize`` is ignored on this path (dispatch is
        per-task by construction).  Ignored for serial and
        ``in_order=False`` runs, which never buffer.

    Raises
    ------
    repro.exceptions.SolverError
        Immediately (before running anything) if a task names an
        unregistered solver, omits a required threshold, or passes one
        to a solver that takes none — a malformed batch is a
        programming error, unlike a solver failure, which is reported
        per-outcome.
    """
    if max_buffered is not None and max_buffered < 1:
        raise SolverError(
            f"max_buffered must be >= 1 (got {max_buffered})"
        )
    policy = policy or BatchPolicy()
    payloads = _prepare(list(tasks), seed, policy)
    total = len(payloads)
    if total == 0:
        return

    # resolve store hits up front; misses carry their key for write-back
    ready: dict[int, BatchOutcome] = {}
    misses: list[tuple[int, BatchTask, dict[str, Any], BatchPolicy]] = []
    keys: dict[int, str] = {}
    if store is not None:
        for payload in payloads:
            index, task, opts, _ = payload
            key = _task_key(task, opts)
            record = store.get(key) if key is not None else None
            record = _validated_record(record, task.solver)
            if record is not None:
                ready[index] = _outcome_from_record(record, index, task)
            else:
                if key is not None:
                    keys[index] = key
                misses.append(payload)
    else:
        misses = payloads

    def _finish(outcome: BatchOutcome) -> BatchOutcome:
        if store is not None and _storable(outcome):
            key = keys.get(outcome.index)
            if key is not None:
                store.put(key, _outcome_to_record(outcome))
        return outcome

    if workers is None or workers <= 1 or not misses:
        # serial: tasks run lazily as the consumer pulls outcomes
        if in_order:
            by_index = {p[0]: p for p in misses}
            for index in range(total):
                if index in ready:
                    yield ready[index]
                else:
                    yield _finish(_execute(by_index[index]))
        else:
            for outcome in sorted(ready.values(), key=lambda o: o.index):
                yield outcome
            for payload in misses:
                yield _finish(_execute(payload))
        return

    workers = min(workers, len(misses))
    if chunksize is None:
        # even split of the *dispatched* work: deriving this from the
        # full task count would lump a mostly-warm batch's few misses
        # into one worker's chunk
        chunksize = max(1, len(misses) // workers)
    with multiprocessing.Pool(processes=workers) as pool:
        if in_order and max_buffered is not None:
            # windowed dispatch: at most max_buffered + 1 tasks are in
            # flight or completed-but-unyielded at once, so a stalled
            # head task bounds memory instead of letting every faster
            # completion pile up in the reordering buffer
            window = max_buffered + 1
            queue = deque(misses)
            pending: deque[tuple[int, Any]] = deque()

            def _pump() -> None:
                while queue and len(pending) < window:
                    payload = queue.popleft()
                    pending.append(
                        (payload[0], pool.apply_async(_execute, (payload,)))
                    )

            _pump()
            next_index = 0
            while next_index in ready:
                yield ready.pop(next_index)
                next_index += 1
            while pending:
                # misses are queued in index order, so the deque head is
                # always the lowest-index in-flight task: blocking on it
                # is exactly the in-order wait
                _, async_result = pending.popleft()
                outcome = _finish(async_result.get())
                ready[outcome.index] = outcome
                while next_index in ready:
                    yield ready.pop(next_index)
                    next_index += 1
                _pump()
            return
        completions = pool.imap_unordered(
            _execute, misses, chunksize=max(1, chunksize)
        )
        if in_order:
            next_index = 0
            while next_index in ready:
                yield ready.pop(next_index)
                next_index += 1
            for outcome in completions:
                ready[outcome.index] = _finish(outcome)
                while next_index in ready:
                    yield ready.pop(next_index)
                    next_index += 1
        else:
            for outcome in sorted(ready.values(), key=lambda o: o.index):
                yield outcome
            for outcome in completions:
                yield _finish(outcome)


def run_batch(
    tasks: Iterable[BatchTask],
    *,
    workers: int | None = None,
    seed: int | None = None,
    policy: BatchPolicy | None = None,
    store: ResultStore | None = None,
    chunksize: int | None = None,
) -> list[BatchOutcome]:
    """Execute a batch of solver tasks, returning outcomes in task order.

    A convenience wrapper over :func:`iter_batch` (which see for the
    ``policy``/``store`` semantics): the whole batch is
    drained into a list.  ``chunksize`` defaults to an even split of the
    dispatched tasks across workers — better dispatch amortisation than
    the streaming default, identical results.
    """
    return list(
        iter_batch(
            list(tasks),
            workers=workers,
            seed=seed,
            policy=policy,
            store=store,
            chunksize=chunksize,
            in_order=True,
        )
    )


def threshold_sweep(
    solver: str,
    application: PipelineApplication,
    platform: Platform,
    thresholds: Sequence[float],
    *,
    workers: int | None = None,
    seed: int | None = None,
    policy: BatchPolicy | None = None,
    store: ResultStore | None = None,
    opts: Mapping[str, Any] | None = None,
    warm_start: str = "off",
) -> list[BatchOutcome]:
    """Run one threshold query per value over a single instance.

    The bread-and-butter frontier workload, now a thin wrapper over the
    sweep engine (:mod:`repro.engine.sweeps`): outcomes are returned in
    threshold order, infeasible thresholds showing up as failed outcomes
    rather than aborting the sweep.  Duplicate thresholds are solved
    once and fanned back out to every grid position, and
    ``warm_start="chain"`` chains the accepted mapping of each point
    into the next solve on monotone grids (warm-startable solvers
    only).  With a ``store``, re-running a sweep over a previously
    solved grid performs zero new solver invocations.
    """
    from .sweeps import SweepPlan, run_sweep

    plan = SweepPlan.single(
        application,
        platform,
        solver,
        thresholds,
        opts=opts,
        warm_start=warm_start,
        # keep historic threshold_sweep behaviour: every point is a real
        # batch task with honest per-task elapsed/cached metadata (the
        # enumerate-once fast path lives in sweep_frontier's plans)
        one_pass_exhaustive=False,
    )
    result = run_sweep(
        plan,
        workers=workers,
        seed=seed,
        policy=policy,
        store=store,
    )
    return list(result.cells[0].outcomes)


# ----------------------------------------------------------------------
# dependency-aware task graph
# ----------------------------------------------------------------------
#: A parent-side hook deriving a node's final task from its dependencies'
#: outcomes: ``resolve(task, deps) -> task`` where ``deps`` maps each
#: dependency name to its :class:`BatchOutcome` (or list of outcomes for
#: multi-outcome runner nodes).  Runs in the parent process immediately
#: before dispatch, so closures (and mutable compiler state) are fine —
#: only the *resolved* task is shipped to workers.
Resolver = Callable[
    [BatchTask, Mapping[str, "BatchOutcome | list[BatchOutcome]"]],
    BatchTask,
]

#: A custom execution function for a node: a **top-level, picklable**
#: callable receiving the standard ``(index, task, opts, policy)``
#: payload and returning one :class:`BatchOutcome` or a list of them
#: (e.g. the sweep engine's exhaustive one-pass runner, which answers a
#: whole threshold grid from a single node).  Runner nodes bypass the
#: result store (the runner owns its own caching semantics) and skip
#: the threshold-shape validation of standard nodes.
Runner = Callable[
    [tuple[int, BatchTask, dict[str, Any], BatchPolicy]],
    "BatchOutcome | list[BatchOutcome]",
]


@dataclass(frozen=True)
class GraphNode:
    """One task inside a dependency-aware graph.

    ``depends_on`` names the nodes whose outcomes must exist before this
    node runs; ``resolve`` (optional) rewrites the task from those
    outcomes right before dispatch — the sweep engine uses it to inject
    the previous chain point's mapping as a warm start.  ``seed_index``
    overrides the index used for deterministic seeding (``base_seed +
    seed_index``); by default the node's position in the input sequence
    is used, but a compiler that wants graph execution to reproduce a
    pre-graph layout's seeds (e.g. per-cell numbering) pins it
    explicitly.  ``runner`` swaps :func:`solve` dispatch for a custom
    picklable payload function (see :data:`Runner`).
    """

    name: str
    task: BatchTask
    depends_on: tuple[str, ...] = ()
    resolve: Resolver | None = None
    seed_index: int | None = None
    runner: Runner | None = None


def _validate_graph(
    nodes: Sequence[GraphNode], on_dep_failure: str
) -> None:
    """Reject malformed graphs before running anything."""
    if on_dep_failure not in ("run", "skip"):
        raise SolverError(
            f"on_dep_failure must be 'run' or 'skip', got {on_dep_failure!r}"
        )
    names: set[str] = set()
    for node in nodes:
        if not node.name:
            raise SolverError("graph nodes need non-empty names")
        if node.name in names:
            raise SolverError(f"duplicate graph node name {node.name!r}")
        names.add(node.name)
    for node in nodes:
        for dep in node.depends_on:
            if dep == node.name:
                raise SolverError(
                    f"graph node {node.name!r} depends on itself"
                )
            if dep not in names:
                raise SolverError(
                    f"graph node {node.name!r} depends on unknown node "
                    f"{dep!r}"
                )
    # Kahn's algorithm: anything left unprocessed sits on a cycle
    remaining = {n.name: len(set(n.depends_on)) for n in nodes}
    children: dict[str, list[str]] = {n.name: [] for n in nodes}
    for node in nodes:
        for dep in set(node.depends_on):
            children[dep].append(node.name)
    ready = [name for name, count in remaining.items() if count == 0]
    seen = 0
    while ready:
        name = ready.pop()
        seen += 1
        for child in children[name]:
            remaining[child] -= 1
            if remaining[child] == 0:
                ready.append(child)
    if seen != len(nodes):
        cyclic = sorted(
            name for name, count in remaining.items() if count > 0
        )
        raise SolverError(
            f"graph has a dependency cycle through {cyclic}"
        )
    # standard nodes go through the registry front door: validate the
    # threshold shape now, exactly like _prepare does for flat batches
    for node in nodes:
        if node.runner is not None:
            continue
        spec = get_solver(node.task.solver)
        if spec.needs_threshold and node.task.threshold is None:
            raise SolverError(
                f"graph node {node.name!r} ({node.task.solver!r}) "
                f"requires a threshold"
            )
        if not spec.needs_threshold and node.task.threshold is not None:
            raise SolverError(
                f"graph node {node.name!r} ({node.task.solver!r}) does "
                f"not take a threshold"
            )


def _failed(outcome: "BatchOutcome | list[BatchOutcome]") -> bool:
    """True when a dependency's outcome(s) contain any failure."""
    if isinstance(outcome, list):
        return any(not o.ok for o in outcome)
    return not outcome.ok


def _cancelled_outcome(
    index: int, task: BatchTask, failed_deps: Sequence[str]
) -> BatchOutcome:
    return BatchOutcome(
        index=index,
        solver=task.solver,
        tag=task.tag,
        result=None,
        error=(
            "Cancelled: dependency failed "
            f"({', '.join(sorted(failed_deps))})"
        ),
        elapsed=0.0,
        task=task,
        error_kind=ErrorKind.CANCELLED,
        attempts=0,
    )


def iter_graph(
    nodes: Iterable[GraphNode],
    *,
    workers: int | None = None,
    seed: int | None = None,
    policy: BatchPolicy | None = None,
    store: ResultStore | None = None,
    on_dep_failure: str = "run",
) -> Iterator[tuple[str, BatchOutcome]]:
    """Execute a task graph, yielding ``(node_name, outcome)`` pairs.

    Nodes are dispatched the moment every dependency has completed —
    independent subgraphs interleave freely across the worker pool, so
    a plan of many chains keeps every core busy even though each chain
    is internally sequential.  Yield order is completion order (each
    pair still names its node); multi-outcome runner nodes yield one
    pair per outcome, in the runner's order.

    Semantics carried over from :func:`iter_batch`:

    * **deterministic seeding** — node ``i`` (or ``seed_index`` when the
      node pins one) runs with ``seed + i`` unless its resolved opts
      already carry a seed; independent of ``workers``;
    * **fault isolation** — failures become failed outcomes; with the
      default ``on_dep_failure="run"`` dependents still run (their
      ``resolve`` hook sees the failure and decides what to do — the
      sweep engine's chains fall back to the last good seed), while
      ``"skip"`` short-circuits dependents of failed nodes into
      synthetic outcomes with :attr:`ErrorKind.CANCELLED`;
    * **store reuse** — standard nodes probe the store *after*
      resolution (a warm-start seed is part of the key), hits resolve
      without dispatching, new deterministic outcomes are written back.
      A fully store-warm graph never creates the worker pool at all
      (the pool is created lazily on the first real dispatch).

    Raises
    ------
    repro.exceptions.SolverError
        Before running anything: duplicate/unknown node names,
        dependency cycles, or threshold-shape violations on standard
        nodes.
    """
    nodes = list(nodes)
    _validate_graph(nodes, on_dep_failure)
    policy = policy or BatchPolicy()
    if not nodes:
        return

    position = {node.name: i for i, node in enumerate(nodes)}
    children: dict[str, list[str]] = {n.name: [] for n in nodes}
    pending_deps: dict[str, int] = {}
    for node in nodes:
        deps = set(node.depends_on)
        pending_deps[node.name] = len(deps)
        for dep in deps:
            children[dep].append(node.name)

    results: dict[str, BatchOutcome | list[BatchOutcome]] = {}
    # ready nodes execute in ascending input position: deterministic
    # serial order, deterministic dispatch order under a pool
    ready: list[int] = [
        position[n.name] for n in nodes if pending_deps[n.name] == 0
    ]
    heapq.heapify(ready)

    # probe the store up front for every node whose key is already
    # known (no resolver, no dependencies) — one read pass before any
    # write, exactly like iter_batch, so a capped LRU store refreshes
    # all its hits before the first eviction-triggering put can evict
    # a record the graph was about to reuse.  Misses are recorded too
    # (as None): the node was probed once, and must not be re-probed
    # at dispatch time (store stats count one lookup per task)
    prefetched: dict[str, BatchOutcome | None] = {}
    if store is not None:
        for node in nodes:
            if (
                node.runner is not None
                or node.resolve is not None
                or node.depends_on
            ):
                continue
            pos = position[node.name]
            idx = node.seed_index if node.seed_index is not None else pos
            opts = _effective_opts(node.task, idx, seed)
            key = _task_key(node.task, opts)
            record = store.get(key) if key is not None else None
            record = _validated_record(record, node.task.solver)
            prefetched[node.name] = (
                _outcome_from_record(record, pos, node.task)
                if record is not None
                else None
            )

    parallel = workers is not None and workers > 1
    pool: multiprocessing.pool.Pool | None = None
    done: _queue.SimpleQueue = _queue.SimpleQueue()
    in_flight = 0

    def _complete(
        name: str, outcome: BatchOutcome | list[BatchOutcome]
    ) -> None:
        results[name] = outcome
        for child in children[name]:
            pending_deps[child] -= 1
            if pending_deps[child] == 0:
                heapq.heappush(ready, position[child])

    def _resolve(
        node: GraphNode,
    ) -> (
        tuple[str, BatchOutcome | list[BatchOutcome]]
        | tuple[None, tuple[int, BatchTask, dict[str, Any], BatchPolicy]]
    ):
        """Prepare a ready node: either an immediate outcome (store
        hit, cancellation), tagged via a non-None first element, or
        ``(None, payload)`` for dispatch."""
        pos = position[node.name]
        deps = {dep: results[dep] for dep in node.depends_on}
        failed_deps = [dep for dep, out in deps.items() if _failed(out)]
        task = node.task
        if failed_deps and on_dep_failure == "skip":
            return ("cancelled", _cancelled_outcome(pos, task, failed_deps))
        probe = True
        if node.name in prefetched:
            hit = prefetched.pop(node.name)
            if hit is not None:
                return ("hit", hit)
            probe = False  # already probed (a miss): don't count twice
        if node.resolve is not None:
            task = node.resolve(task, deps)
        idx = node.seed_index if node.seed_index is not None else pos
        opts = _effective_opts(task, idx, seed)
        if probe and node.runner is None and store is not None:
            key = _task_key(task, opts)
            record = store.get(key) if key is not None else None
            record = _validated_record(record, task.solver)
            if record is not None:
                return ("hit", _outcome_from_record(record, pos, task))
        return (None, (pos, task, opts, policy))

    def _finish_store(
        node: GraphNode,
        outcome: BatchOutcome | list[BatchOutcome],
    ) -> None:
        if node.runner is not None or store is None:
            return
        assert isinstance(outcome, BatchOutcome)
        if _storable(outcome):
            # key the *resolved* task under the same effective opts the
            # dispatch used, so replay probes (which resolve first) hit
            idx = (
                node.seed_index
                if node.seed_index is not None
                else position[node.name]
            )
            key = _task_key(
                outcome.task, _effective_opts(outcome.task, idx, seed)
            )
            if key is not None:
                store.put(key, _outcome_to_record(outcome))

    try:
        while len(results) < len(nodes):
            progressed = False
            while ready:
                node = nodes[heapq.heappop(ready)]
                status, prepared = _resolve(node)
                if status is not None:
                    outcome = prepared
                    _complete(node.name, outcome)
                    progressed = True
                    if isinstance(outcome, list):
                        for sub in outcome:
                            yield (node.name, sub)
                    else:
                        yield (node.name, outcome)
                    continue
                payload = prepared
                fn = node.runner if node.runner is not None else _execute
                if parallel:
                    if pool is None:
                        pool = multiprocessing.Pool(processes=workers)
                    name = node.name
                    pool.apply_async(
                        fn,
                        (payload,),
                        callback=lambda out, name=name: done.put(
                            (name, out, None)
                        ),
                        error_callback=lambda exc, name=name: done.put(
                            (name, None, exc)
                        ),
                    )
                    in_flight += 1
                    progressed = True
                else:
                    outcome = fn(payload)
                    _finish_store(node, outcome)
                    _complete(node.name, outcome)
                    progressed = True
                    if isinstance(outcome, list):
                        for sub in outcome:
                            yield (node.name, sub)
                    else:
                        yield (node.name, outcome)
            if len(results) == len(nodes):
                break
            if in_flight:
                name, outcome, exc = done.get()
                in_flight -= 1
                node = nodes[position[name]]
                if exc is not None:
                    # the worker function itself failed outside the
                    # solver guard (unpicklable return, runner bug):
                    # report it as a crashed outcome, never a lost node
                    outcome = BatchOutcome(
                        index=position[name],
                        solver=node.task.solver,
                        tag=node.task.tag,
                        result=None,
                        error=f"{type(exc).__name__}: {exc}",
                        elapsed=0.0,
                        task=node.task,
                        error_kind=ErrorKind.CRASH,
                    )
                _finish_store(node, outcome)
                _complete(name, outcome)
                if isinstance(outcome, list):
                    for sub in outcome:
                        yield (name, sub)
                else:
                    yield (name, outcome)
            elif not progressed:  # pragma: no cover - guarded by _validate
                raise SolverError(
                    "graph made no progress (unreachable nodes?)"
                )
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()


def run_graph(
    nodes: Iterable[GraphNode],
    *,
    workers: int | None = None,
    seed: int | None = None,
    policy: BatchPolicy | None = None,
    store: ResultStore | None = None,
    on_dep_failure: str = "run",
) -> dict[str, BatchOutcome | list[BatchOutcome]]:
    """Execute a task graph, returning ``{node name: outcome(s)}``.

    The drained sibling of :func:`iter_graph` (which see for all
    semantics): multi-outcome runner nodes map to the list of their
    outcomes, every other node to its single :class:`BatchOutcome`.
    """
    nodes = list(nodes)
    collected: dict[str, list[BatchOutcome]] = {}
    for name, outcome in iter_graph(
        nodes,
        workers=workers,
        seed=seed,
        policy=policy,
        store=store,
        on_dep_failure=on_dep_failure,
    ):
        collected.setdefault(name, []).append(outcome)
    multi = {n.name for n in nodes if n.runner is not None}
    return {
        name: outcomes if name in multi else outcomes[0]
        for name, outcomes in collected.items()
    }
