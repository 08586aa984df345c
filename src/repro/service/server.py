"""The solve-service daemon: asyncio front end over a thread pool.

:class:`SolverService` is a long-lived server that accepts the
versioned JSON requests of :mod:`repro.service.protocol` over two
transports — NDJSON on a Unix socket and HTTP/1.1 on TCP (chunked
NDJSON responses).  All work shares **one** result store (wrapped in
:class:`~repro.engine.store.ThreadSafeStore`), so concurrent clients
dedupe against the same hot cache and a warm re-submit performs zero
solver invocations.

Where a request runs:

* a ``solve`` whose store key this daemon has already resolved is
  answered on the event loop.  The *key memo* maps a digest of the
  request (solver, solver version, instance spec, threshold, opts,
  seed) to its store key and instance tag; one store lookup fetches
  the record, and ``accepted``, ``outcome`` and ``done`` go out at once
  with ``queue_wait`` 0.  Such a hit never waits in the queue — it
  skips priority ordering and ``queue-full`` — and never occupies a
  worker.  The memo keeps at most ``_MEMO_SIZE`` entries, evicting the
  oldest first, and holds no instances;
* every other work request runs on a pool of worker threads.  A solve
  builds its instance and derives its store key once, looks the key up
  unless the loop already did (so each request counts exactly one
  store hit or miss), runs a miss through the engine's task executor
  (:func:`~repro.engine.batch._execute`: policy, retries, structured
  error kinds) and writes a storable outcome back before it records
  the key in the memo.  A sweep runs
  :func:`~repro.engine.sweeps.iter_sweep`.

Requests whose store key is not a pure function of the request never
enter the memo: scenario specs without an integer ``seed`` (the
generator draws from unseeded randomness), unseeded runs of a
randomised solver, anything the loop cannot resolve (an unknown
solver), and every request on a daemon without a store.

Robustness model:

* the request queue is bounded (``queue_size``) — an overflowing
  submit that needs a worker is rejected immediately with a
  *retriable* ``queue-full`` error instead of growing without bound;
* each accepted job streams events through a bounded per-job buffer
  (``event_buffer``); a slow-reading client blocks its *own* worker
  (true backpressure), never the server's memory.  A job's terminal
  ``done`` or ``error`` event closes its stream;
* higher ``priority`` requests dequeue first (FIFO within a
  priority);
* :meth:`drain` (wired to SIGTERM by ``repro-pipeline serve``) stops
  intake — new work requests, store hits included, get a retriable
  ``draining`` error while queued and in-flight jobs run to
  completion, then :meth:`serve_forever` returns;
* a crashing solver is a failed *outcome* (structured
  :class:`~repro.engine.policy.ErrorKind` on the event), and a
  crashing request handler is a terminal ``error`` event — neither
  kills a worker;
* intake is bounded: a request line over ``MAX_LINE_BYTES`` gets a
  ``bad-request`` error on either transport, and the HTTP front end
  answers a declared body over ``MAX_LINE_BYTES`` or a header block
  over ``MAX_HEADER_LINES`` lines or ``MAX_HEADER_BYTES`` bytes with a
  400 before reading any further.

The loop's store lookup waits on the store lock, so a store whose
writes are slow stalls the loop for as long as a worker's write holds
the lock.  Per-request ``policy`` timeouts degrade to unguarded
execution here (SIGALRM needs the main thread; workers are threads) —
retries and backoff still apply.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
import math
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Awaitable, Callable, Mapping

from ..core import metrics_kernels
from ..core.serialization import canonical_json
from ..engine.batch import (
    BatchOutcome,
    BatchTask,
    _execute,
    _outcome_from_record,
    _outcome_to_record,
    _prepare,
    _storable,
    _task_key,
    _validated_record,
)
from ..engine.policy import BatchPolicy
from ..engine.registry import get_solver
from ..engine.store import ResultStore, ThreadSafeStore, open_store
from ..engine.sweeps import SweepInstance, SweepPlan, iter_sweep
from ..exceptions import ReproError
from .protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ServiceError,
    done_event,
    encode_event,
    error_event,
    outcome_event,
    policy_from_request,
    stored_outcome_event,
    validate_request,
)

__all__ = ["SolverService", "MAX_HEADER_LINES", "MAX_HEADER_BYTES"]

_SendFn = Callable[[Mapping[str, Any]], Awaitable[None]]

#: the events that end a job's stream
_JOB_TERMINAL = frozenset({"done", "error"})

#: key-memo capacity; an entry is three short strings, so a full memo
#: stays around a megabyte
_MEMO_SIZE = 4096

#: HTTP header lines (request line excluded) accepted per request
MAX_HEADER_LINES = 100

#: HTTP request line plus header bytes accepted per request
MAX_HEADER_BYTES = 64 * 1024


@dataclass
class _Job:
    """One queued work request plus its event channel."""

    rid: str
    request: dict[str, Any]
    events: asyncio.Queue
    #: key-memo digest of a memo-eligible solve, else None
    digest: str | None = None
    #: the event loop already looked the store key up (a miss)
    probed: bool = False
    enqueued_at: float = field(default_factory=time.perf_counter)


async def _read_line(reader: asyncio.StreamReader) -> bytes | None:
    """One line from a client, or None when it is over the stream's
    ``MAX_LINE_BYTES`` limit (``readline`` raises that as ValueError)."""
    try:
        return await reader.readline()
    except ValueError:
        return None


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sample."""
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class SolverService:
    """Long-lived solve daemon sharing one store across clients.

    Parameters
    ----------
    store:
        A :class:`ResultStore`, a path (opened via
        :func:`~repro.engine.store.open_store`), or None to serve
        without a cache.  Whatever arrives is wrapped in
        :class:`ThreadSafeStore` so all workers share it safely.
    workers:
        Worker threads executing jobs (= max concurrent jobs; store
        hits are answered on the event loop and need none).
    queue_size:
        Bound on queued-but-unstarted jobs; overflow is rejected with a
        retriable ``queue-full`` error.
    event_buffer:
        Per-job bound on buffered response events; when a client reads
        slower than its job produces, the job's worker blocks (the
        server never buffers an unbounded backlog).
    default_policy:
        :class:`BatchPolicy` applied when a request carries none.
    """

    def __init__(
        self,
        store: "ResultStore | str | Path | None" = None,
        *,
        workers: int = 2,
        queue_size: int = 32,
        event_buffer: int = 64,
        default_policy: BatchPolicy | None = None,
    ) -> None:
        if workers < 1:
            raise ReproError("service needs at least 1 worker")
        if queue_size < 1:
            raise ReproError("queue_size must be >= 1")
        if event_buffer < 1:
            raise ReproError("event_buffer must be >= 1")
        if isinstance(store, (str, Path)):
            store = open_store(store, threadsafe=True)
        elif store is not None and not isinstance(store, ThreadSafeStore):
            store = ThreadSafeStore(store)
        self.store = store
        self.workers = workers
        self.queue_size = queue_size
        self.event_buffer = event_buffer
        self.default_policy = default_policy

        self._queue: asyncio.PriorityQueue = asyncio.PriorityQueue(
            maxsize=queue_size
        )
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-service"
        )
        self._seq = itertools.count()
        self._worker_tasks: list[asyncio.Task] = []
        self._drainer_tasks: set[asyncio.Task] = set()
        self._connections: set[asyncio.Task] = set()
        self._servers: list[asyncio.AbstractServer] = []
        self._draining = False
        self._drain_requested: asyncio.Event | None = None
        self._started_at: float | None = None
        self.socket_path: str | None = None
        self.http_port: int | None = None

        # counters shared between the event loop and worker threads
        self._lock = threading.Lock()
        self._accepted = 0
        self._rejected = 0
        self._completed = 0
        self._failed = 0
        self._outcomes_ok = 0
        self._outcomes_failed = 0
        self._outcomes_cached = 0
        self._latencies: deque[float] = deque(maxlen=4096)
        #: the key memo: request digest -> (store key, instance tag)
        self._memo: dict[str, tuple[str, str]] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining

    async def start(
        self,
        *,
        socket_path: "str | Path | None" = None,
        host: str | None = None,
        port: int | None = None,
    ) -> None:
        """Bind the transports and start the worker pool.

        ``socket_path`` starts the NDJSON Unix-socket endpoint;
        ``host``/``port`` (port 0 picks a free one, reported via
        :attr:`http_port`) starts the HTTP endpoint.  At least one is
        required.
        """
        if socket_path is None and port is None:
            raise ReproError(
                "service needs a socket_path and/or an HTTP host/port"
            )
        self._drain_requested = asyncio.Event()
        self._started_at = time.monotonic()
        # compile the bulk kernels (no-op without numba) before the
        # first request lands, so daemon latency percentiles never eat
        # a mid-request JIT pass; cache=True persists the machine code,
        # making this near-instant on every later daemon start
        await asyncio.get_running_loop().run_in_executor(
            self._executor, metrics_kernels.warmup
        )
        if socket_path is not None:
            server = await asyncio.start_unix_server(
                self._handle_ndjson,
                path=str(socket_path),
                limit=MAX_LINE_BYTES,
            )
            self.socket_path = str(socket_path)
            self._servers.append(server)
        if port is not None:
            server = await asyncio.start_server(
                self._handle_http,
                host=host or "127.0.0.1",
                port=port,
                limit=MAX_LINE_BYTES,
            )
            self.http_port = server.sockets[0].getsockname()[1]
            self._servers.append(server)
        self._worker_tasks = [
            asyncio.create_task(self._worker_loop(), name=f"worker-{i}")
            for i in range(self.workers)
        ]

    def drain(self) -> None:
        """Stop accepting work; queued and in-flight jobs finish.

        Call from the event loop thread (signal handlers installed by
        the CLI, or ``loop.call_soon_threadsafe`` from outside).
        New work requests are rejected with a retriable ``draining``
        error; control requests keep working so clients can observe
        the drain.
        """
        if self._draining:
            return
        self._draining = True
        if self._drain_requested is not None:
            self._drain_requested.set()

    async def serve_forever(self) -> None:
        """Serve until :meth:`drain`, then finish the backlog and stop."""
        if self._drain_requested is None:
            raise ReproError("call start() before serve_forever()")
        await self._drain_requested.wait()
        await self._queue.join()
        for task in self._worker_tasks:
            task.cancel()
        await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        if self._drainer_tasks:
            await asyncio.gather(
                *self._drainer_tasks, return_exceptions=True
            )
        for server in self._servers:
            server.close()
            await server.wait_closed()
        if self._connections:
            # let in-flight replies flush; only a hung client is cut
            _, pending = await asyncio.wait(
                self._connections, timeout=5.0
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        self._executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    # request intake (event loop side)
    # ------------------------------------------------------------------
    async def _dispatch(self, payload: Any, send: _SendFn) -> None:
        """Validate, then answer a store hit inline or enqueue the job
        and relay its events."""
        fallback_id = (
            payload.get("id") if isinstance(payload, Mapping) else None
        )
        try:
            req = validate_request(payload)
        except ServiceError as exc:
            with self._lock:
                self._rejected += 1
            await send(error_event(fallback_id, exc))
            return
        rid = req.get("id") or f"req-{next(self._seq)}"
        kind = req["kind"]
        if kind == "ping":
            await send(
                {
                    "event": "pong",
                    "id": rid,
                    "schema": PROTOCOL_VERSION,
                    "draining": self._draining,
                }
            )
            return
        if kind == "stats":
            await send({"event": "stats", "id": rid, **self.stats_snapshot()})
            return
        if kind == "drain":
            self.drain()
            await send({"event": "draining", "id": rid})
            return

        if self._draining:
            with self._lock:
                self._rejected += 1
            await send(
                error_event(
                    rid,
                    ServiceError(
                        "service is draining and no longer accepts work",
                        code="draining",
                        retriable=True,
                    ),
                )
            )
            return
        digest = self._memo_digest(req)
        probed = False
        if digest is not None:
            with self._lock:
                entry = self._memo.get(digest)
            if entry is not None:
                if await self._answer_hit(rid, req, *entry, send):
                    return
                probed = True
        job = _Job(
            rid=rid,
            request=req,
            events=asyncio.Queue(maxsize=self.event_buffer),
            digest=digest,
            probed=probed,
        )
        try:
            self._queue.put_nowait((-req["priority"], next(self._seq), job))
        except asyncio.QueueFull:
            with self._lock:
                self._rejected += 1
            await send(
                error_event(
                    rid,
                    ServiceError(
                        f"request queue is full "
                        f"({self.queue_size} pending); retry later",
                        code="queue-full",
                        retriable=True,
                    ),
                )
            )
            return
        with self._lock:
            self._accepted += 1
        terminal = False
        try:
            await send(self._accepted_event(rid, kind))
            while not terminal:
                event = await job.events.get()
                terminal = event["event"] in _JOB_TERMINAL
                await send(event)
        finally:
            if not terminal:
                # client went away (or the relay died) with the job
                # still queued/running: keep consuming its events so
                # the worker's bounded-buffer puts never deadlock
                task = asyncio.create_task(self._discard_events(job))
                self._drainer_tasks.add(task)
                task.add_done_callback(self._drainer_tasks.discard)

    def _accepted_event(self, rid: str, kind: str) -> dict[str, Any]:
        return {
            "event": "accepted",
            "id": rid,
            "kind": kind,
            "pending": self._queue.qsize(),
        }

    @staticmethod
    async def _discard_events(job: _Job) -> None:
        while (await job.events.get())["event"] not in _JOB_TERMINAL:
            pass

    # ------------------------------------------------------------------
    # store hits (event loop side)
    # ------------------------------------------------------------------
    def _memo_digest(self, req: Mapping[str, Any]) -> str | None:
        """Key-memo digest of a solve request, or None when the request
        may not use the memo (see the module docstring)."""
        if self.store is None or req["kind"] != "solve":
            return None
        spec = req["instance"]
        seed = spec.get("seed")
        if "scenario" in spec and (
            isinstance(seed, bool) or not isinstance(seed, int)
        ):
            return None
        try:
            version = get_solver(req["solver"]).version
        except ReproError:
            return None
        identity = {
            "solver": req["solver"],
            "solver_version": version,
            "instance": spec,
            "threshold": req.get("threshold"),
            "opts": req.get("opts") or {},
            "seed": req.get("seed"),
        }
        return hashlib.sha256(
            canonical_json(identity).encode("ascii")
        ).hexdigest()

    def _remember(self, digest: str, key: str, tag: str) -> None:
        """Record a resolved store key in the memo (any thread)."""
        with self._lock:
            self._memo[digest] = (key, tag)
            if len(self._memo) > _MEMO_SIZE:
                del self._memo[next(iter(self._memo))]

    async def _answer_hit(
        self,
        rid: str,
        req: Mapping[str, Any],
        key: str,
        tag: str,
        send: _SendFn,
    ) -> bool:
        """Answer a memoised solve from the store on the loop.

        Returns False — the request then goes to a worker, which does
        not look the key up again — when the store holds no current,
        readable record for the key.
        """
        started = time.perf_counter()
        try:
            record = _validated_record(self.store.get(key), req["solver"])
            if record is None:
                return False
            event = stored_outcome_event(
                rid,
                record,
                solver=req["solver"],
                threshold=req.get("threshold"),
                tag=tag,
                include_mapping=bool(req.get("include_mapping", False)),
            )
        except Exception:  # a failing store or an undecodable record:
            return False  # the worker solves afresh and rewrites it
        ok = int(event["ok"])
        with self._lock:
            self._accepted += 1
        done = self._complete(
            rid,
            total=1,
            ok=ok,
            failed=1 - ok,
            cached=1,
            elapsed=time.perf_counter() - started,
            queue_wait=0.0,
        )
        await send(self._accepted_event(rid, "solve"))
        await send(event)
        await send(done)
        return True

    # ------------------------------------------------------------------
    # job execution (worker side)
    # ------------------------------------------------------------------
    async def _worker_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            _, _, job = await self._queue.get()
            try:
                await loop.run_in_executor(
                    self._executor, self._execute_job, job, loop
                )
            finally:
                self._queue.task_done()

    def _execute_job(
        self, job: _Job, loop: asyncio.AbstractEventLoop
    ) -> None:
        """Run one job on a worker thread, streaming events back.

        Every ``emit`` blocks until the event-loop side buffered the
        event (bounded queue): a slow client throttles exactly one
        worker.  Every exit path emits exactly one terminal event.
        """
        req = job.request
        started = time.perf_counter()
        queue_wait = started - job.enqueued_at
        terminal = False

        def emit(event: Mapping[str, Any]) -> None:
            nonlocal terminal
            terminal = event["event"] in _JOB_TERMINAL
            asyncio.run_coroutine_threadsafe(
                job.events.put(event), loop
            ).result()

        ok = failed = cached = total = 0
        try:
            policy = policy_from_request(req) or self.default_policy
            include_mapping = bool(req.get("include_mapping", False))
            if req["kind"] == "solve":
                outcome, tag = self._solve(job, policy)
                stream = [(outcome, tag, None)]
            else:
                plan = SweepPlan.from_spec(req["plan"])
                stream = (
                    (point.outcome, point.instance_tag, point.index)
                    for point in iter_sweep(
                        plan,
                        seed=req.get("seed"),
                        policy=policy,
                        store=self.store,
                        in_order=False,
                        stream="points",
                    )
                )
            for outcome, instance_tag, point_index in stream:
                total += 1
                ok += outcome.ok
                failed += not outcome.ok
                cached += outcome.cached
                emit(
                    outcome_event(
                        job.rid,
                        outcome,
                        instance=instance_tag,
                        point_index=point_index,
                        include_mapping=include_mapping,
                    )
                )
            emit(
                self._complete(
                    job.rid,
                    total=total,
                    ok=ok,
                    failed=failed,
                    cached=cached,
                    elapsed=time.perf_counter() - started,
                    queue_wait=queue_wait,
                )
            )
        except ReproError as exc:
            with self._lock:
                self._failed += 1
            if not isinstance(exc, ServiceError):
                exc = ServiceError(str(exc), code="bad-request")
            emit(error_event(job.rid, exc))
        except Exception as exc:  # defensive: a worker must survive
            with self._lock:
                self._failed += 1
            emit(
                error_event(
                    job.rid,
                    ServiceError(
                        f"{type(exc).__name__}: {exc}", code="internal"
                    ),
                )
            )
        finally:
            if not terminal:
                with self._lock:
                    self._failed += 1
                emit(
                    error_event(
                        job.rid,
                        ServiceError(
                            "the job ended without a result",
                            code="internal",
                        ),
                    )
                )

    def _solve(
        self, job: _Job, policy: BatchPolicy | None
    ) -> tuple[BatchOutcome, str]:
        """One solve request on a worker: its outcome and instance tag.

        The instance is built and keyed once; the store is looked up
        unless the loop already did; a miss runs through the engine's
        task executor, and a storable outcome is written back before
        its key enters the memo.
        """
        req = job.request
        instance = SweepInstance.from_spec(req["instance"], 0)
        task = BatchTask(
            req["solver"],
            instance.application,
            instance.platform,
            threshold=req.get("threshold"),
            opts=dict(req.get("opts") or {}),
            tag=instance.tag,
        )
        (payload,) = _prepare(
            [task], req.get("seed"), policy or BatchPolicy()
        )
        _, task, opts, _ = payload
        key = _task_key(task, opts) if self.store is not None else None
        record = None
        if key is not None and not job.probed:
            record = _validated_record(self.store.get(key), task.solver)
        if record is not None:
            outcome = _outcome_from_record(record, 0, task)
        else:
            outcome = _execute(payload)
            if key is None or not _storable(outcome):
                return outcome, instance.tag
            self.store.put(key, _outcome_to_record(outcome))
        if job.digest is not None:
            self._remember(job.digest, key, instance.tag)
        return outcome, instance.tag

    def _complete(
        self,
        rid: str,
        *,
        total: int,
        ok: int,
        failed: int,
        cached: int,
        elapsed: float,
        queue_wait: float,
    ) -> dict[str, Any]:
        """Count a finished job and build its ``done`` event."""
        with self._lock:
            self._completed += 1
            self._outcomes_ok += ok
            self._outcomes_failed += failed
            self._outcomes_cached += cached
            self._latencies.append(queue_wait + elapsed)
        return done_event(
            rid,
            total=total,
            ok=ok,
            failed=failed,
            cached=cached,
            elapsed=elapsed,
            queue_wait=queue_wait,
        )

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def stats_snapshot(self) -> dict[str, Any]:
        """Point-in-time server/store counters (the ``stats`` reply)."""
        with self._lock:
            ordered = sorted(self._latencies)
            snapshot: dict[str, Any] = {
                "schema": PROTOCOL_VERSION,
                "server": {
                    "workers": self.workers,
                    "queue_capacity": self.queue_size,
                    "queue_depth": self._queue.qsize(),
                    "draining": self._draining,
                    "uptime": (
                        time.monotonic() - self._started_at
                        if self._started_at is not None
                        else 0.0
                    ),
                },
                "requests": {
                    "accepted": self._accepted,
                    "rejected": self._rejected,
                    "completed": self._completed,
                    "failed": self._failed,
                },
                "outcomes": {
                    "ok": self._outcomes_ok,
                    "failed": self._outcomes_failed,
                    "cached": self._outcomes_cached,
                    "solver_invocations": (
                        self._outcomes_ok
                        + self._outcomes_failed
                        - self._outcomes_cached
                    ),
                },
                "latency": {
                    "count": len(ordered),
                    "mean": (
                        sum(ordered) / len(ordered) if ordered else 0.0
                    ),
                    "p50": _percentile(ordered, 50),
                    "p90": _percentile(ordered, 90),
                    "p99": _percentile(ordered, 99),
                },
            }
        if self.store is not None:
            snapshot["store"] = {
                **self.store.stats.as_dict(),
                "records": len(self.store),
            }
        return snapshot

    # ------------------------------------------------------------------
    # transports
    # ------------------------------------------------------------------
    async def _guard_connection(self, coro: "Awaitable[None]") -> None:
        """Run one connection handler, absorbing teardown cancellation.

        A handler task that *finishes cancelled* makes
        :mod:`asyncio.streams` log a spurious traceback from its
        ``connection_made`` callback; swallowing the cancellation here
        (these tasks are only ever cancelled by our own shutdown) keeps
        teardown silent.
        """
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            await coro
        except asyncio.CancelledError:
            pass
        finally:
            if task is not None:
                self._connections.discard(task)

    async def _handle_ndjson(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        await self._guard_connection(self._serve_ndjson(reader, writer))

    async def _handle_http(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        await self._guard_connection(self._serve_http(reader, writer))

    async def _serve_ndjson(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """One NDJSON request per connection; events stream back."""
        try:
            line = await _read_line(reader)
            if line is None:
                problem = f"request line over {MAX_LINE_BYTES} bytes"
            elif not line.strip():
                return
            else:
                try:
                    payload = json.loads(line)
                    problem = None
                except json.JSONDecodeError as exc:
                    problem = f"invalid JSON: {exc}"
            if problem is not None:
                writer.write(
                    encode_event(
                        error_event(
                            None, ServiceError(problem, code="bad-request")
                        )
                    )
                )
                await writer.drain()
                return

            async def send(event: Mapping[str, Any]) -> None:
                writer.write(encode_event(event))
                await writer.drain()

            await self._dispatch(payload, send)
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _serve_http(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Minimal HTTP/1.1: POST /v1/requests, GET /v1/{ping,stats}.

        Responses are ``application/x-ndjson`` with chunked
        transfer-encoding — the same event stream as the socket
        transport, one chunk per event.
        """
        try:
            raw = await _read_line(reader)
            if raw is None:
                await self._http_plain(
                    writer, 400, f"request line over {MAX_LINE_BYTES} bytes"
                )
                return
            parts = raw.decode("latin-1").split()
            if len(parts) != 3:
                return
            method, path, _ = parts
            headers: dict[str, str] = {}
            size = len(raw)
            for count in itertools.count():
                line = await _read_line(reader)
                if line in (b"\r\n", b"\n", b""):
                    break
                if line is not None:
                    size += len(line)
                if (
                    line is None
                    or count >= MAX_HEADER_LINES
                    or size > MAX_HEADER_BYTES
                ):
                    await self._http_plain(
                        writer,
                        400,
                        f"header block over {MAX_HEADER_LINES} lines or "
                        f"{MAX_HEADER_BYTES} bytes",
                    )
                    return
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()

            if method == "POST" and path in ("/v1/requests", "/v1"):
                try:
                    length = int(headers.get("content-length", "0"))
                except ValueError:
                    length = -1
                if length < 0:
                    await self._http_plain(
                        writer, 400, "missing/invalid Content-Length"
                    )
                    return
                if length > MAX_LINE_BYTES:
                    await self._http_plain(
                        writer,
                        400,
                        f"request body of {length} bytes exceeds the "
                        f"{MAX_LINE_BYTES}-byte limit",
                    )
                    return
                body = await reader.readexactly(length)
                try:
                    payload: Any = json.loads(body) if body else None
                except json.JSONDecodeError as exc:
                    await self._http_plain(writer, 400, f"invalid JSON: {exc}")
                    return
            elif method == "GET" and path == "/v1/ping":
                payload = {"kind": "ping"}
            elif method == "GET" and path == "/v1/stats":
                payload = {"kind": "stats"}
            else:
                await self._http_plain(
                    writer, 404, f"no route for {method} {path}"
                )
                return

            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: application/x-ndjson\r\n"
                b"Transfer-Encoding: chunked\r\n"
                b"Connection: close\r\n\r\n"
            )
            await writer.drain()

            async def send(event: Mapping[str, Any]) -> None:
                line = encode_event(event)
                writer.write(
                    f"{len(line):X}\r\n".encode() + line + b"\r\n"
                )
                await writer.drain()

            await self._dispatch(payload, send)
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    @staticmethod
    async def _http_plain(
        writer: asyncio.StreamWriter, status: int, message: str
    ) -> None:
        reason = {400: "Bad Request", 404: "Not Found"}.get(status, "Error")
        body = encode_event(
            error_event(
                None, ServiceError(message, code="bad-request")
            )
        )
        writer.write(
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/x-ndjson\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n".encode() + body
        )
        await writer.drain()
