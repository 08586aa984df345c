"""Self-tests of the benchmark's own arithmetic and plumbing.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import json
import math

import pytest

from perfbench.common import END_TO_END, PER_LAYER, ROOT, percentile, tail_percentile
from perfbench.spans import Probes, Tracer, covered, layer_values, self_times


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 20) == 1.0
    assert percentile(values, 21) == 2.0
    assert percentile(values, 100) == 5.0
    assert percentile(range(1, 101), 99) == 99
    assert math.isnan(percentile([], 50))


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(1000))) == (99.0, 989)
    assert tail_percentile(list(range(200))) == (95.0, 189)
    assert math.isnan(tail_percentile(list(range(15)))[0])


def _span(name, start, end, parent=None):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "rid": None, "tid": 1, "attrs": {}}


def test_self_time_subtracts_child_coverage():
    spans = [
        _span("job", 0.0, 10.0),
        _span("solve", 1.0, 4.0, parent=0),
        _span("store", 6.0, 7.0, parent=0),
        _span("bulk", 2.0, 3.0, parent=1),
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_coverage_merges_overlaps_and_clips():
    assert covered(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (9.0, 12.0)]) == 5.0
    assert covered(0.0, 10.0, []) == 0.0


def test_sweep_overhead_excludes_nested_solver_time():
    spans = [
        _span("engine.sweeps.iter_sweep", 0.0, 10.0),
        _span("engine.registry.solve", 1.0, 4.0, parent=0),
        _span("algorithms.bicriteria.exhaustive.sweep", 5.0, 9.0, parent=0),
    ]
    spans[1]["attrs"]["solver"] = "greedy-min-fp"
    values = layer_values(spans, {})
    assert values["engine.sweeps.overhead_s"] == (3.0, 1)
    assert values["engine.registry.solves"] == (1, 1)


def test_speed_samples_overlapping_a_request_are_dropped():
    from perfbench.hostspeed import idle_samples

    samples = [(0.00, 0.01), (0.10, 0.01), (0.20, 0.01), (0.30, 0.01)]
    # request 1 starts during the first pass; request 2 ends just
    # before the fourth pass, within the margin
    busy = [(0.005, 0.05), (0.15, 0.298)]
    assert idle_samples(samples, busy) == [(0.10, 0.01)]
    assert idle_samples(samples, []) == samples


def test_service_schedule_is_a_function_of_the_seed():
    from perfbench.service_mixed import COLD_SHARE, RATE, SWEEP_SHARE, build_schedule

    def shape(schedule):
        return [(r.due, r.kind, json.dumps(r.fields, sort_keys=True)) for r in schedule]

    first, again = build_schedule(3, 8.0), build_schedule(3, 8.0)
    total = round(RATE * 8.0)
    assert shape(first) == shape(again)
    assert shape(first) != shape(build_schedule(4, 8.0))
    assert len(first) == total
    assert sum(r.kind == "sweep" for r in first) == round(SWEEP_SHARE * total)
    # a warm request only ever repeats a cold one due at least 1 s before
    for r in first:
        if r.kind == "warm":
            assert r.original.kind == "cold"
            assert r.due - r.original.due >= 1.0
            assert r.fields is r.original.fields
    assert sum(r.kind != "sweep" for r in first) == total - round(SWEEP_SHARE * total)
    assert 0 < COLD_SHARE < 1


def test_probes_are_transparent_and_restored():
    from repro import api
    from repro.engine import batch, registry

    app, plat = api.make_scenario("edge-hub-cloud", seed=1, params={"stages": 5})
    originals = (registry.solve, batch.solve)
    plain = api.solve("local-search-min-fp", app, plat, 60.0, seed=3)
    tracer = Tracer()
    with Probes(tracer).install():
        assert registry.solve is not originals[0]
        traced = registry.solve("local-search-min-fp", app, plat, 60.0, seed=3)
    assert traced == plain
    assert (registry.solve, batch.solve) == originals
    data = tracer.export()
    names = {row["name"] for row in data["spans"]}
    assert "engine.registry.solve" in names
    assert data["counters"]["core.metrics.scalar_calls"] > 0


def test_benchmark_json_matches_the_catalogs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert e2e == list(END_TO_END)
    assert layers == list(PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == {
        "service-mixed", "sweep-frontier", "dynamic-resolve"
    }


@pytest.mark.parametrize("module", ["sweep_frontier", "dynamic_resolve"])
def test_inputs_are_a_function_of_the_seed(module):
    import importlib

    mod = importlib.import_module(f"perfbench.{module}")
    if module == "sweep_frontier":
        first, again = mod.build_pass(5, 1), mod.build_pass(5, 1)
        assert first[1] == again[1]
        assert [p.to_spec() for p in first[0]] == [p.to_spec() for p in again[0]]
    else:
        assert mod.make_spec(5, 1) == mod.make_spec(5, 1)
        assert mod.make_spec(5, 1) != mod.make_spec(6, 1)
