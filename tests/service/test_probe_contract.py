"""The daemon's hook points, driven through the benchmark's probes.

``perfbench.spans.Probes`` wraps functions of the service by name:
``SolverService._execute_job(self, job, loop)`` (reading ``job.rid``
and ``job.request``), the ``iter_sweep`` the server module imports,
``repro.engine.batch.solve`` and ``ResultStore.get/put/peek``.  A
rename or a new signature breaks every traced benchmark run, so this
drives a cold solve, its warm repeat and a one-point sweep through the
installed probes.
"""

from perfbench.spans import Probes, Tracer, ancestor
from repro.engine.store import MemoryStore
from repro.service import PROTOCOL_VERSION, ServiceThread

INSTANCE = {"scenario": "edge-hub-cloud", "seed": 3, "params": {"stages": 4}}
SOLVE = {
    "schema": PROTOCOL_VERSION,
    "kind": "solve",
    "solver": "greedy-min-fp",
    "instance": INSTANCE,
    "threshold": 60.0,
    "include_mapping": True,
}
SWEEP = {
    "schema": PROTOCOL_VERSION,
    "kind": "sweep",
    "plan": {
        "schema": PROTOCOL_VERSION,
        "instances": [INSTANCE],
        "solvers": ["greedy-min-fp"],
        "thresholds": [45.0],
    },
    "include_mapping": True,
}


def _answers(store):
    """Outcome events of cold, warm and sweep, minus timings."""
    with ServiceThread(store, workers=1) as service:
        client = service.client()
        runs = [
            list(client.request({**SOLVE, "id": "cold"})),
            list(client.request({**SOLVE, "id": "warm"})),
            list(client.request({**SWEEP, "id": "sweep"})),
        ]
    return [
        {k: v for k, v in event.items() if k != "elapsed"}
        for events in runs
        for event in events
        if event["event"] == "outcome"
    ]


def test_probes_see_every_hook_point():
    plain = _answers(MemoryStore())
    tracer = Tracer()
    probes = Probes(tracer).install(scalar_calls=False)
    store = MemoryStore()
    try:
        traced = _answers(store)
    finally:
        probes.restore()
    spans = tracer.export()["spans"]

    assert traced == plain
    assert [o["cached"] for o in traced] == [False, True, False]
    jobs = {
        s["rid"]: i for i, s in enumerate(spans) if s["name"] == "service.job"
    }
    # the warm repeat is answered on the event loop, never by a worker
    assert set(jobs) == {"cold", "sweep"}
    (solve,) = [
        i
        for i, s in enumerate(spans)
        if s["name"] == "engine.registry.solve" and s["rid"] == "cold"
    ]
    assert ancestor(spans, solve, "service.job") == jobs["cold"]
    assert any(s["name"] == "engine.sweeps.iter_sweep" for s in spans)
    gets = [s for s in spans if s["name"] == "engine.store.get"]
    assert len(gets) == store.stats.hits + store.stats.misses == 3
    puts = [s for s in spans if s["name"] == "engine.store.put"]
    assert len(puts) == store.stats.writes == 2
