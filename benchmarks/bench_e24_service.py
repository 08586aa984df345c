"""E24 — the solve service under concurrent mixed traffic.

Measures the serving claims of :mod:`repro.service`:

* **shared hot cache** — N concurrent clients submitting overlapping
  solve *and* sweep requests dedupe against one
  :class:`~repro.engine.store.ThreadSafeStore`-wrapped SQLite store;
  the store hit rate and the total number of fresh solver invocations
  are reported, and a warm re-submit of the whole plan must complete
  with **zero** solver invocations;
* **request latency** — client-observed p50/p99 per-request latency
  under the concurrent mixed load (and the server's own queue-aware
  percentiles from its ``stats`` endpoint);
* **backpressure sanity** — the bounded queue never rejects within
  the sized load (every request completes).
"""

import threading
import time

from repro.service import ServiceThread

from .conftest import report

CLIENTS = 6
ROUNDS = 3
THRESHOLDS = (30.0, 45.0, 60.0, 90.0)
SEEDS = (3, 4)
SOLVER = "greedy-min-fp"


def _instance(seed):
    return {
        "scenario": "edge-hub-cloud",
        "seed": seed,
        "params": {"stages": 6},
    }


def _plan():
    return {
        "schema": 1,
        "instances": [_instance(seed) for seed in SEEDS],
        "solvers": [SOLVER],
        "thresholds": list(THRESHOLDS),
    }


def _percentile(ordered, q):
    if not ordered:
        return 0.0
    rank = max(1, round(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def test_e24_service_mixed_traffic(tmp_path):
    """>=4 concurrent clients, mixed solve/sweep, one shared store."""
    latencies: list[tuple[str, float]] = []
    failures: list[Exception] = []
    lock = threading.Lock()

    def timed(kind, call):
        start = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - start
        with lock:
            latencies.append((kind, elapsed))
        return result

    def client_load(service, index):
        try:
            client = service.client(timeout=120.0)
            for round_index in range(ROUNDS):
                # sweep over the shared grid...
                _, done = timed(
                    "sweep", lambda: client.run_sweep(_plan(), seed=0)
                )
                assert done["failed"] == 0
                # ...plus point solves that overlap the same cache keys
                for threshold in THRESHOLDS[
                    index % 2::2
                ]:
                    outcome = timed(
                        "solve",
                        lambda t=threshold: client.solve(
                            SOLVER,
                            _instance(SEEDS[index % len(SEEDS)]),
                            threshold=t,
                        ),
                    )
                    assert outcome["ok"], outcome
        except Exception as exc:  # pragma: no cover - surfaced below
            with lock:
                failures.append(exc)

    grid_size = len(SEEDS) * len(THRESHOLDS)
    with ServiceThread(
        str(tmp_path / "results.sqlite"), workers=4, queue_size=256
    ) as service:
        start = time.perf_counter()
        threads = [
            threading.Thread(target=client_load, args=(service, i))
            for i in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(300)
        wall = time.perf_counter() - start
        assert failures == [], failures

        # warm re-submit of the same plan: zero fresh invocations
        _, warm = service.client().run_sweep(_plan(), seed=0)
        stats = service.client().stats()

    assert warm["solver_invocations"] == 0, warm
    assert warm["cached"] == grid_size

    store = stats["store"]
    outcomes = stats["outcomes"]
    # during the cold burst each key can be solved at most once per
    # worker (concurrent requests race before the first write lands);
    # after that every lookup hits the shared store
    assert outcomes["solver_invocations"] <= grid_size * 4, outcomes
    assert stats["requests"]["rejected"] == 0
    assert store["hit_rate"] > 0.8, store

    sweep_lat = sorted(t for kind, t in latencies if kind == "sweep")
    solve_lat = sorted(t for kind, t in latencies if kind == "solve")
    total_requests = len(latencies) + 2
    report(
        f"E24: solve service, {CLIENTS} concurrent clients x "
        f"{ROUNDS} rounds of mixed traffic ({len(sweep_lat)} sweeps + "
        f"{len(solve_lat)} solves, {grid_size}-point grid, 4 workers)",
        ("metric", "value"),
        [
            # a plain ratio under a "ratio" label: compare_bench.py
            # tracks it as higher-is-better
            ("store hit ratio", f"{store['hit_rate']:.4f}"),
            ("store hits / misses",
             f"{store['hits']} / {store['misses']}"),
            ("fresh solver invocations",
             f"{outcomes['solver_invocations']}"),
            ("requests completed", f"{total_requests}"),
            ("warm re-submit invocations",
             f"{warm['solver_invocations']} (cached {warm['cached']})"),
        ],
    )
    # plain numbers under a seconds header, so compare_bench.py gates them
    report(
        f"E24: solve service request latency under mixed traffic "
        f"({CLIENTS} clients, 4 workers)",
        ("latency", "seconds"),
        [
            ("sweep p50", f"{_percentile(sweep_lat, 50):.4f}"),
            ("sweep p99", f"{_percentile(sweep_lat, 99):.4f}"),
            ("solve p50", f"{_percentile(solve_lat, 50):.4f}"),
            ("solve p99", f"{_percentile(solve_lat, 99):.4f}"),
            ("server-side p50", f"{stats['latency']['p50']:.4f}"),
            ("server-side p99", f"{stats['latency']['p99']:.4f}"),
            ("wall clock", f"{wall:.4f}"),
        ],
    )


def test_e24_bench_service_round_trip(tmp_path, benchmark):
    """pytest-benchmark row: one warm sweep request end to end."""
    plan = _plan()
    with ServiceThread(
        str(tmp_path / "results.sqlite"), workers=2
    ) as service:
        client = service.client()
        client.run_sweep(plan, seed=0)  # warm the store

        def round_trip():
            _, done = client.run_sweep(plan, seed=0)
            assert done["solver_invocations"] == 0
            return done

        done = benchmark(round_trip)
        assert done["cached"] == len(SEEDS) * len(THRESHOLDS)
