"""In-process solve service: round-trips, sharing, robustness.

Everything here runs a real :class:`SolverService` (real sockets, real
worker threads) on a background loop via :class:`ServiceThread` — only
the process boundary of the daemon tests is skipped.
"""

import json
import socket
import threading
import time

import pytest

from repro.api import get_solver
from repro.engine.store import MemoryStore, open_store
from repro.service import (
    PROTOCOL_VERSION,
    ServiceClient,
    ServiceError,
    ServiceThread,
)
from repro.service.protocol import MAX_LINE_BYTES
from repro.service.server import MAX_HEADER_BYTES, MAX_HEADER_LINES

from tests.engine.synthetic import (
    always_crash_min_fp,
    counting_min_fp,
    gated_min_fp,
    invocations,
    ordered_min_fp,
    register_synthetic,
)


def instance_spec(seed=3, stages=4):
    return {
        "scenario": "edge-hub-cloud",
        "seed": seed,
        "params": {"stages": stages},
    }


def plan_spec(
    *, solver="greedy-min-fp", thresholds=(40.0, 60.0, 90.0), seeds=(3,),
    opts=None,
):
    entry = {"name": solver, "opts": dict(opts)} if opts else solver
    return {
        "schema": PROTOCOL_VERSION,
        "instances": [instance_spec(seed=s) for s in seeds],
        "solvers": [entry],
        "thresholds": list(thresholds),
    }


class TestRoundTrips:
    def test_solve_over_socket(self):
        with ServiceThread(MemoryStore()) as service:
            client = service.client()
            outcome = client.solve(
                "greedy-min-fp", instance_spec(), threshold=60.0, seed=0
            )
        assert outcome["ok"] is True
        assert outcome["solver"] == "greedy-min-fp"
        assert outcome["latency"] <= 60.0
        assert 0.0 <= outcome["failure_probability"] <= 1.0
        assert "mapping" not in outcome

    def test_solve_include_mapping(self):
        with ServiceThread() as service:
            outcome = service.client().solve(
                "greedy-min-fp",
                instance_spec(),
                threshold=60.0,
                include_mapping=True,
            )
        assert outcome["mapping"]["kind"] == "interval-mapping"

    def test_sweep_streams_accepted_outcomes_done(self):
        spec = plan_spec()
        with ServiceThread(MemoryStore()) as service:
            events = list(service.client().sweep(spec, seed=0))
        assert events[0]["event"] == "accepted"
        assert events[-1]["event"] == "done"
        outcomes = [e for e in events if e["event"] == "outcome"]
        assert len(outcomes) == 3
        assert {e["threshold"] for e in outcomes} == {40.0, 60.0, 90.0}
        assert all(
            e["instance"] == "edge-hub-cloud[seed=3]" for e in outcomes
        )
        done = events[-1]
        assert done["total"] == 3 and done["ok"] == 3
        assert done["solver_invocations"] == 3

    def test_http_transport_equivalent(self):
        spec = plan_spec()
        with ServiceThread(MemoryStore(), http=True) as service:
            http_client = service.client(http=True)
            assert http_client.ping()["event"] == "pong"
            outcomes, done = http_client.run_sweep(spec, seed=0)
            assert done["ok"] == 3
            # second submit is warm through the same shared store
            _, warm = service.client().run_sweep(spec, seed=0)
        assert warm["solver_invocations"] == 0

    def test_http_get_routes_and_404(self):
        with ServiceThread(http=True) as service:
            import http.client

            conn = http.client.HTTPConnection(
                "127.0.0.1", service.http_port, timeout=30
            )
            conn.request("GET", "/v1/ping")
            body = conn.getresponse().read()
            assert json.loads(body)["event"] == "pong"
            conn = http.client.HTTPConnection(
                "127.0.0.1", service.http_port, timeout=30
            )
            conn.request("GET", "/nope")
            response = conn.getresponse()
            assert response.status == 404
            assert json.loads(response.read())["event"] == "error"

    def test_failed_solve_is_outcome_not_error(self):
        with register_synthetic("svc-crash", always_crash_min_fp):
            with ServiceThread() as service:
                outcome = service.client().solve(
                    "svc-crash", instance_spec(), threshold=50.0
                )
        assert outcome["ok"] is False
        assert outcome["error_kind"] == "crash"
        assert "synthetic permanent crash" in outcome["error"]

    def test_request_policy_drives_retries(self):
        with register_synthetic("svc-crash", always_crash_min_fp):
            with ServiceThread() as service:
                outcome = service.client().solve(
                    "svc-crash",
                    instance_spec(),
                    threshold=50.0,
                    policy={"retries": 2},
                )
        assert outcome["attempts"] == 3

    def test_ping_stats_drain_verbs(self):
        with ServiceThread(MemoryStore()) as service:
            client = service.client()
            pong = client.ping()
            assert pong["schema"] == PROTOCOL_VERSION
            assert pong["draining"] is False
            client.solve("greedy-min-fp", instance_spec(), threshold=60.0)
            stats = client.stats()
            assert stats["requests"]["completed"] == 1
            assert stats["outcomes"]["solver_invocations"] == 1
            assert stats["store"]["writes"] == 1
            assert stats["latency"]["count"] == 1
            assert stats["latency"]["p99"] >= stats["latency"]["p50"] > 0
            assert client.drain()["event"] == "draining"


class TestProtocolErrors:
    def test_malformed_json_line(self):
        with ServiceThread() as service:
            with socket.socket(socket.AF_UNIX) as sock:
                sock.settimeout(30)
                sock.connect(service.socket_path)
                sock.sendall(b"{not json\n")
                reply = json.loads(sock.makefile("rb").readline())
        assert reply["event"] == "error"
        assert reply["code"] == "bad-request"

    def test_unknown_key_rejected_by_name(self):
        with ServiceThread() as service:
            with pytest.raises(ServiceError, match="'warmstart'"):
                list(
                    service.client().request(
                        {
                            "schema": PROTOCOL_VERSION,
                            "kind": "sweep",
                            "plan": plan_spec(),
                            "warmstart": "chain",
                        }
                    )
                )

    def test_unsupported_schema(self):
        with ServiceThread() as service:
            with pytest.raises(ServiceError) as err:
                list(
                    service.client().request(
                        {
                            "schema": PROTOCOL_VERSION + 1,
                            "kind": "sweep",
                            "plan": plan_spec(),
                        }
                    )
                )
        assert err.value.code == "unsupported-schema"
        assert not err.value.retriable

    def test_bad_plan_spec_is_bad_request(self):
        with ServiceThread() as service:
            with pytest.raises(ServiceError) as err:
                service.client().run_sweep(
                    {"instances": "nope", "solvers": ["greedy-min-fp"]}
                )
        assert err.value.code == "bad-request"

    def test_request_id_is_echoed(self):
        with ServiceThread() as service:
            events = list(
                service.client().submit(
                    "solve",
                    request_id="my-req",
                    solver="greedy-min-fp",
                    instance=instance_spec(),
                    threshold=60.0,
                )
            )
        assert all(e["id"] == "my-req" for e in events)


def _raw_http(port, data):
    """Send raw bytes to the HTTP endpoint; everything it answers."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(data)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


class TestHttpIntakeBounds:
    def test_oversized_body_refused_before_reading_it(self):
        with ServiceThread(http=True) as service:
            reply = _raw_http(
                service.http_port,
                f"POST /v1/requests HTTP/1.1\r\n"
                f"Content-Length: {MAX_LINE_BYTES + 1}\r\n\r\n".encode(),
            )
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400")
        assert json.loads(body)["code"] == "bad-request"

    @pytest.mark.parametrize(
        "headers",
        [
            "".join(f"X-Fill-{i}: {i}\r\n" for i in range(MAX_HEADER_LINES + 1)),
            "".join(
                f"X-Fill-{i}: {'x' * (MAX_HEADER_BYTES // 2)}\r\n"
                for i in range(2)
            ),
        ],
        ids=["lines", "bytes"],
    )
    def test_overlong_header_block_refused(self, headers):
        with ServiceThread(http=True) as service:
            reply = _raw_http(
                service.http_port,
                f"GET /v1/ping HTTP/1.1\r\n{headers}".encode(),
            )
        assert reply.startswith(b"HTTP/1.1 400")

    def test_line_over_the_stream_limit_is_a_bad_request(self):
        """A line past MAX_LINE_BYTES gets an answer on both transports
        (the stream reader reports it as ValueError, not as an overrun)."""
        pad = b"x" * (MAX_LINE_BYTES + 1024)
        with ServiceThread(http=True) as service:
            reply = _raw_http(
                service.http_port,
                b"GET /v1/ping HTTP/1.1\r\nX-Pad: " + pad + b"\r\n\r\n",
            )
            with socket.socket(socket.AF_UNIX) as sock:
                sock.settimeout(30)
                sock.connect(service.socket_path)
                sock.sendall(b'{"kind": "ping", "pad": "' + pad + b'"}\n')
                event = json.loads(sock.makefile("rb").readline())
            assert service.client().ping()["event"] == "pong"
        assert reply.startswith(b"HTTP/1.1 400")
        assert event["event"] == "error"
        assert event["code"] == "bad-request"


class TestStoreHits:
    """Repeats of a solve the daemon already resolved are answered on
    its event loop: one store lookup, no worker, no queue."""

    def test_warm_repeat_answered_while_the_worker_is_busy(self, tmp_path):
        gate = tmp_path / "gate"
        counter = tmp_path / "count"
        blocker_spec = {
            "schema": PROTOCOL_VERSION,
            "kind": "solve",
            "solver": "svc-gate",
            "instance": instance_spec(),
            "threshold": 50.0,
            "opts": {"gate": str(gate), "counter_file": str(counter)},
        }
        warm = {
            "schema": PROTOCOL_VERSION,
            "kind": "solve",
            "solver": "greedy-min-fp",
            "instance": instance_spec(),
            "threshold": 60.0,
            "include_mapping": True,
        }
        with register_synthetic("svc-gate", gated_min_fp):
            with ServiceThread(MemoryStore(), workers=1) as service:
                client = service.client(timeout=60)
                cold = list(client.request(warm))
                blocker = threading.Thread(
                    target=lambda: list(client.request(blocker_spec))
                )
                blocker.start()
                try:
                    deadline = time.monotonic() + 10
                    while invocations(counter) == 0:  # worker is busy
                        assert time.monotonic() < deadline
                        time.sleep(0.01)
                    events = list(client.request(warm))
                    held = blocker.is_alive()
                    service.drain()
                    # a hit during a drain is rejected like any work
                    with pytest.raises(ServiceError) as err:
                        list(client.request(warm))
                finally:
                    gate.touch()
                    blocker.join(30)
        assert held
        assert [e["event"] for e in events] == ["accepted", "outcome", "done"]
        outcome, done = events[1], events[2]
        assert outcome["cached"] is True
        assert done["queue_wait"] == 0
        assert done["cached"] == 1 and done["solver_invocations"] == 0
        for field in ("latency", "failure_probability", "mapping", "tag"):
            assert outcome[field] == cold[1][field]
        assert err.value.code == "draining"

    def test_one_store_lookup_per_request(self):
        store = MemoryStore()
        with ServiceThread(store) as service:
            client = service.client()
            first = client.solve(
                "greedy-min-fp", instance_spec(), threshold=60.0
            )
            second = client.solve(
                "greedy-min-fp", instance_spec(), threshold=60.0
            )
            stats = client.stats()
        assert (first["cached"], second["cached"]) == (False, True)
        assert (store.stats.hits, store.stats.misses) == (1, 1)
        assert store.stats.writes == 1
        assert stats["requests"]["completed"] == 2
        assert stats["outcomes"]["cached"] == 1
        assert stats["outcomes"]["solver_invocations"] == 1

    def test_unstorable_outcome_counts_one_miss_per_request(self):
        store = MemoryStore()
        with register_synthetic("svc-crash", always_crash_min_fp):
            with ServiceThread(store) as service:
                client = service.client()
                outcomes = [
                    client.solve("svc-crash", instance_spec(), threshold=50.0)
                    for _ in range(2)
                ]
        assert [o["cached"] for o in outcomes] == [False, False]
        assert (store.stats.hits, store.stats.misses) == (0, 2)
        assert store.stats.writes == 0

    def test_scenario_without_seed_is_never_memoised(self, tmp_path):
        counter = tmp_path / "count"
        unseeded = {"scenario": "edge-hub-cloud", "params": {"stages": 4}}
        with register_synthetic("svc-count", counting_min_fp):
            with ServiceThread(MemoryStore()) as service:
                client = service.client()
                outcomes = [
                    client.solve(
                        "svc-count",
                        unseeded,
                        threshold=60.0,
                        opts={"counter_file": str(counter)},
                    )
                    for _ in range(2)
                ]
        assert [o["cached"] for o in outcomes] == [False, False]
        assert invocations(counter) == 2

    def test_stale_record_resolves_again_after_a_memo_hit(self):
        store = MemoryStore()
        with ServiceThread(store) as service:
            client = service.client()
            client.solve("greedy-min-fp", instance_spec(), threshold=60.0)
            (key,) = store.keys()
            stale = dict(store.peek(key))
            stale["solver_version"] = get_solver("greedy-min-fp").version + 1
            store.put(key, stale)
            with pytest.warns(UserWarning, match="stale entry"):
                again = client.solve(
                    "greedy-min-fp", instance_spec(), threshold=60.0
                )
            warm = client.solve(
                "greedy-min-fp", instance_spec(), threshold=60.0
            )
        assert again["cached"] is False
        assert warm["cached"] is True
        # cold miss, stale hit (rejected), warm hit: one lookup each
        assert (store.stats.hits, store.stats.misses) == (2, 1)

    @pytest.mark.parametrize(
        "fields",
        [
            {"solver": "no-such-solver", "instance": instance_spec()},
            {
                "solver": "greedy-min-fp",
                "instance": {"scenario": "no-such-scenario", "seed": 1},
            },
        ],
        ids=["solver", "scenario"],
    )
    def test_unresolvable_request_is_accepted_then_refused(self, fields):
        request = {
            "schema": PROTOCOL_VERSION,
            "kind": "solve",
            "threshold": 60.0,
            **fields,
        }
        with ServiceThread(MemoryStore()) as service:
            client = service.client()
            runs = [
                list(client.request(request, raise_on_error=False))
                for _ in range(2)
            ]
        for events in runs:
            assert [e["event"] for e in events] == ["accepted", "error"]
            assert events[-1]["code"] == "bad-request"


class TestSharedStore:
    def test_warm_resubmit_zero_invocations(self, tmp_path):
        counter = tmp_path / "count"
        spec = plan_spec(
            solver="svc-count", opts={"counter_file": str(counter)}
        )
        store = open_store(tmp_path / "results.sqlite")
        with register_synthetic("svc-count", counting_min_fp):
            with ServiceThread(store, workers=2) as service:
                _, cold = service.client().run_sweep(spec, seed=0)
                _, warm = service.client().run_sweep(spec, seed=0)
        assert cold["solver_invocations"] == 3
        assert warm["solver_invocations"] == 0
        assert warm["cached"] == 3
        assert invocations(counter) == 3  # the ground truth

    def test_many_clients_one_store(self, tmp_path):
        """8 concurrent clients hammer one shared SQLite store: after a
        single warm-up pass, no client triggers a solver invocation."""
        counter = tmp_path / "count"
        spec = plan_spec(
            solver="svc-count",
            opts={"counter_file": str(counter)},
            thresholds=(30.0, 50.0, 70.0, 90.0),
        )
        store = open_store(tmp_path / "results.sqlite")
        clients, errors = 8, []
        with register_synthetic("svc-count", counting_min_fp):
            with ServiceThread(store, workers=4, queue_size=64) as service:
                _, warmup = service.client().run_sweep(spec, seed=0)
                assert warmup["solver_invocations"] == 4

                def hammer(index):
                    try:
                        client = service.client()
                        for _ in range(3):
                            _, done = client.run_sweep(spec, seed=0)
                            assert done["solver_invocations"] == 0, done
                            assert done["ok"] == 4
                    except Exception as exc:  # surfaced below
                        errors.append((index, exc))

                threads = [
                    threading.Thread(target=hammer, args=(i,))
                    for i in range(clients)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(120)
                stats = service.client().stats()
        assert errors == []
        assert invocations(counter) == 4
        store_stats = stats["store"]
        # warm-up missed 4 and wrote 4; everything after hit
        assert store_stats["misses"] == 4
        assert store_stats["writes"] == 4
        assert store_stats["hits"] == clients * 3 * 4
        assert store_stats["records"] == 4
        assert stats["requests"]["completed"] == clients * 3 + 1
        assert stats["outcomes"]["solver_invocations"] == 4

    def test_mixed_solve_and_sweep_share_cache(self, tmp_path):
        counter = tmp_path / "count"
        store = MemoryStore()
        with register_synthetic("svc-count", counting_min_fp):
            with ServiceThread(store, workers=2) as service:
                client = service.client()
                outcome = client.solve(
                    "svc-count",
                    instance_spec(),
                    threshold=60.0,
                    opts={"counter_file": str(counter)},
                )
                assert outcome["cached"] is False
                # the same (instance, solver, threshold, opts) point
                # inside a sweep is served from the shared store
                _, done = client.run_sweep(
                    plan_spec(
                        solver="svc-count",
                        thresholds=(60.0,),
                        opts={"counter_file": str(counter)},
                    )
                )
        assert done["cached"] == 1
        assert invocations(counter) == 1


class TestQueueing:
    def test_priority_orders_queued_jobs(self, tmp_path):
        """With one busy worker, a high-priority submit overtakes an
        earlier low-priority one in the queue."""
        gate = tmp_path / "gate"
        counter = tmp_path / "count"
        order = tmp_path / "order"
        blocker_spec = {
            "schema": PROTOCOL_VERSION,
            "kind": "solve",
            "solver": "svc-gate",
            "instance": instance_spec(),
            "threshold": 50.0,
            "opts": {"gate": str(gate), "counter_file": str(counter)},
        }
        finished: list[str] = []
        lock = threading.Lock()

        def submit(client, label, priority):
            list(
                client.submit(
                    "solve",
                    priority=priority,
                    solver="svc-order",
                    instance=instance_spec(),
                    threshold=50.0 + priority,
                    opts={"order_file": str(order), "label": label},
                    request_id=label,
                )
            )
            with lock:
                finished.append(label)

        def wait_queued(client, depth):
            # poll the queue rather than sleep a fixed time: on a loaded
            # host a submit can take longer than any pause to arrive
            deadline = time.monotonic() + 10
            while client.stats()["server"]["queue_depth"] < depth:
                assert time.monotonic() < deadline
                time.sleep(0.01)

        with register_synthetic(
            "svc-gate", gated_min_fp
        ), register_synthetic("svc-order", ordered_min_fp):
            with ServiceThread(workers=1, queue_size=8) as service:
                client = service.client()
                blocker = threading.Thread(
                    target=lambda: list(client.request(blocker_spec))
                )
                blocker.start()
                deadline = time.monotonic() + 10
                while invocations(counter) == 0:  # worker is busy
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                low = threading.Thread(
                    target=submit, args=(client, "low", 0)
                )
                low.start()
                wait_queued(client, 1)  # low is queued first
                high = threading.Thread(
                    target=submit, args=(client, "high", 5)
                )
                high.start()
                wait_queued(client, 2)
                gate.touch()  # release the worker
                for thread in (blocker, low, high):
                    thread.join(30)
        assert sorted(finished) == ["high", "low"]
        # the worker's run order: replies to two client threads can
        # arrive in either order even when the jobs ran in turn
        assert order.read_text().split() == ["high", "low"]

    def test_queue_full_is_retriable(self, tmp_path):
        gate = tmp_path / "gate"
        counter = tmp_path / "count"

        def gated_request(rid):
            return {
                "schema": PROTOCOL_VERSION,
                "kind": "solve",
                "id": rid,
                "solver": "svc-gate",
                "instance": instance_spec(),
                "threshold": 50.0,
                "opts": {"gate": str(gate), "counter_file": str(counter)},
            }

        with register_synthetic("svc-gate", gated_min_fp):
            with ServiceThread(workers=1, queue_size=1) as service:
                client = service.client()
                threads = [
                    threading.Thread(
                        target=lambda r=rid: list(
                            client.request(gated_request(r))
                        )
                    )
                    for rid in ("in-flight", "queued")
                ]
                overflow = None
                try:
                    threads[0].start()
                    deadline = time.monotonic() + 10
                    while invocations(counter) == 0:
                        assert time.monotonic() < deadline
                        time.sleep(0.01)
                    threads[1].start()
                    deadline = time.monotonic() + 10
                    # wait until the queued job holds the single slot
                    # (control requests bypass the queue)
                    while (
                        client.stats()["server"]["queue_depth"] < 1
                    ):
                        assert time.monotonic() < deadline
                        time.sleep(0.01)
                    # the overflow rejection is immediate + retriable
                    with pytest.raises(ServiceError) as err:
                        client.solve(
                            "greedy-min-fp",
                            instance_spec(),
                            threshold=60.0,
                        )
                    overflow = err.value
                finally:
                    gate.touch()
                    for thread in threads:
                        if thread.ident is not None:
                            thread.join(30)
        assert overflow is not None
        assert overflow.code == "queue-full"
        assert overflow.retriable

    def test_backpressure_bounded_events_slow_reader(self):
        """A tiny event buffer with a slow reader still delivers every
        event; the producer is throttled, not buffering unboundedly."""
        spec = plan_spec(thresholds=(20.0, 30.0, 40.0, 50.0, 60.0, 70.0))
        with ServiceThread(
            MemoryStore(), workers=1, event_buffer=1
        ) as service:
            with socket.socket(socket.AF_UNIX) as sock:
                sock.settimeout(60)
                sock.connect(service.socket_path)
                request = {
                    "schema": PROTOCOL_VERSION,
                    "kind": "sweep",
                    "plan": spec,
                    "seed": 0,
                }
                sock.sendall(json.dumps(request).encode() + b"\n")
                stream = sock.makefile("rb")
                events = []
                for line in stream:
                    events.append(json.loads(line))
                    time.sleep(0.05)  # slow consumer
                    if events[-1]["event"] in ("done", "error"):
                        break
        outcomes = [e for e in events if e["event"] == "outcome"]
        assert len(outcomes) == 6
        assert events[-1]["event"] == "done"
        assert events[-1]["ok"] == 6

    def test_abandoned_client_does_not_wedge_the_worker(self):
        """Disconnecting mid-stream must not deadlock the worker that
        is blocked emitting into the bounded event buffer."""
        spec = plan_spec(thresholds=tuple(float(t) for t in range(20, 80)))
        with ServiceThread(
            MemoryStore(), workers=1, event_buffer=1
        ) as service:
            sock = socket.socket(socket.AF_UNIX)
            sock.settimeout(30)
            sock.connect(service.socket_path)
            request = {
                "schema": PROTOCOL_VERSION,
                "kind": "sweep",
                "plan": spec,
                "seed": 0,
            }
            sock.sendall(json.dumps(request).encode() + b"\n")
            # read one event, then vanish
            sock.makefile("rb").readline()
            sock.close()
            # the worker must come free again: a fresh solve completes
            outcome = service.client(timeout=60).solve(
                "greedy-min-fp", instance_spec(), threshold=60.0
            )
            assert outcome["ok"] is True


class TestDraining:
    def test_drain_finishes_in_flight_and_rejects_new(self, tmp_path):
        gate = tmp_path / "gate"
        counter = tmp_path / "count"
        in_flight = {
            "schema": PROTOCOL_VERSION,
            "kind": "solve",
            "solver": "svc-gate",
            "instance": instance_spec(),
            "threshold": 50.0,
            "opts": {"gate": str(gate), "counter_file": str(counter)},
        }
        events: list[dict] = []
        with register_synthetic("svc-gate", gated_min_fp):
            with ServiceThread(workers=1) as service:
                client = service.client(timeout=60)
                runner = threading.Thread(
                    target=lambda: events.extend(
                        client.request(in_flight)
                    )
                )
                runner.start()
                deadline = time.monotonic() + 10
                while invocations(counter) == 0:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                service.drain()
                deadline = time.monotonic() + 10
                while not service.client().ping()["draining"]:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                with pytest.raises(ServiceError) as err:
                    client.solve(
                        "greedy-min-fp", instance_spec(), threshold=60.0
                    )
                assert err.value.code == "draining"
                assert err.value.retriable
                gate.touch()
                runner.join(30)
            # ServiceThread.__exit__ returned: the loop drained fully
        assert events[-1]["event"] == "done"
        assert events[-1]["ok"] == 1

    def test_drain_request_shuts_the_loop_down(self):
        service = ServiceThread().start()
        try:
            assert service.client().drain()["event"] == "draining"
            # with nothing in flight the loop finishes on its own
            service._thread.join(30)
            assert not service._thread.is_alive()
        finally:
            service.stop()


class TestServiceThreadHarness:
    def test_client_requires_http_opt_in(self):
        with ServiceThread() as service:
            with pytest.raises(Exception, match="http"):
                service.client(http=True)

    def test_double_start_rejected(self):
        with ServiceThread() as service:
            with pytest.raises(Exception, match="started"):
                service.start()
