"""E21 — bulk candidate-pool scoring for the heuristics (n=20-60).

Instances with dozens of stages are exactly where the heuristics earn
their keep: the interval-mapping space at n=32/m=10 has ~10^14 members
(~10^19 at n=48/m=12), so the exhaustive solvers (even vectorized,
bench E20) can never touch it.  This bench measures what the PR 4 refactor buys there — local
search scoring whole neighbourhoods through ``BulkEvaluator`` with
scalar confirmation of the survivors, and annealing sampling proposals
from a cached candidate-row pool — while asserting the bulk path's
contract: *identical* final mappings and accepted-move counts under the
same seed.  Greedy has no bulk path; its cached trial scoring is timed
against the per-trial scalar reference loop, identity asserted.
"""

import math
import time

import pytest

from repro.algorithms.bicriteria import count_interval_mappings
from repro.algorithms.heuristics import (
    AnnealingSchedule,
    anneal_minimize_fp,
    greedy_minimize_fp,
    local_search_minimize_fp,
)
from repro.core.mapping import IntervalMapping
from repro.core.metrics import latency
from repro.core.metrics_bulk import HAS_NUMPY
from tests.conftest import make_instance

from .conftest import report  # noqa: F401

pytestmark = pytest.mark.skipif(not HAS_NUMPY, reason="numpy required")

#: annealing proposals per run (the throughput denominator)
ANNEAL_STEPS = 800


def _best_time(fn, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _instance(n, m, seed):
    app, plat = make_instance("comm-homogeneous", n=n, m=m, seed=seed)
    every = IntervalMapping.single_interval(n, set(range(1, m + 1)))
    threshold = 2.0 * latency(every, app, plat)
    return app, plat, threshold


def test_e21_heuristic_bulk_throughput():
    rows = []
    checks = []
    for n, m, seed in ((24, 8, 7), (32, 10, 3), (48, 12, 5)):
        app, plat, threshold = _instance(n, m, seed)
        space = count_interval_mappings(n, m)
        size = f"n={n} m={m} (~10^{int(math.log10(space))} mappings)"

        t_s, r_s = _best_time(
            lambda: local_search_minimize_fp(
                app, plat, threshold, seed=0, use_bulk=False,
                restarts=4, max_steps=80,
            ),
            repeats=2,
        )
        t_b, r_b = _best_time(
            lambda: local_search_minimize_fp(
                app, plat, threshold, seed=0, use_bulk=True,
                restarts=4, max_steps=80,
            ),
            repeats=2,
        )
        assert r_s.mapping == r_b.mapping
        assert r_s.extras["steps"] == r_b.extras["steps"]
        ls_speedup = t_s / t_b
        rows.append(
            (
                f"local search {size}",
                f"{t_s:.4f}",
                f"{t_b:.4f}",
                f"{ls_speedup:.1f}x",
            )
        )

        t_s, r_s = _best_time(
            lambda: anneal_minimize_fp(
                app, plat, threshold, seed=0, use_bulk=False,
                schedule=AnnealingSchedule(steps=ANNEAL_STEPS),
            ),
            repeats=2,
        )
        t_b, r_b = _best_time(
            lambda: anneal_minimize_fp(
                app, plat, threshold, seed=0, use_bulk=True,
                schedule=AnnealingSchedule(steps=ANNEAL_STEPS),
            ),
            repeats=2,
        )
        assert r_s.mapping == r_b.mapping
        an_speedup = t_s / t_b
        rows.append(
            (
                f"annealing {size}",
                f"{t_s:.4f}",
                f"{t_b:.4f}",
                f"{an_speedup:.1f}x",
            )
        )
        checks.append((n, ls_speedup, an_speedup))

    report(
        "E21: heuristic candidate pools, scalar vs bulk scoring",
        ("solver / instance", "scalar seconds", "bulk seconds", "speedup"),
        rows,
    )
    # the refactor's headline claim is >= 3x candidate-scoring throughput
    # on n >= 20; assert a safety margin below the measured 2.5-3x (local
    # search) and 10-13x (annealing) so CI noise cannot flake the job
    for n, ls_speedup, an_speedup in checks:
        assert ls_speedup >= 1.5, (n, ls_speedup)
        assert an_speedup >= 3.0, (n, an_speedup)


def test_e21_proposal_throughput():
    """Annealing proposal throughput (proposals/second), both paths."""
    app, plat, threshold = _instance(32, 10, 3)

    def run(use_bulk):
        return anneal_minimize_fp(
            app, plat, threshold, seed=0, use_bulk=use_bulk,
            schedule=AnnealingSchedule(steps=ANNEAL_STEPS),
        )

    t_s, r_s = _best_time(lambda: run(False), repeats=2)
    t_b, r_b = _best_time(lambda: run(True), repeats=2)
    assert r_s.mapping == r_b.mapping
    report(
        "E21: annealing proposal throughput (n=32 m=10)",
        ("path", "proposals/s throughput"),
        [
            ("scalar neighbourhood rebuild", f"{ANNEAL_STEPS / t_s:.0f}"),
            ("bulk cached candidate pool", f"{ANNEAL_STEPS / t_b:.0f}"),
        ],
    )
    assert ANNEAL_STEPS / t_b >= 3.0 * (ANNEAL_STEPS / t_s)


def test_e21_greedy_cached_identity():
    """Greedy construction: scoring enrolment trials from cached
    interval terms is decision-identical to the per-trial scalar loop."""
    from repro.workloads.scenarios import make_scenario
    from tests.algorithms.greedy_reference import reference_greedy_minimize_fp

    cases = [
        (f"greedy n={n} m={m}", _instance(n, m, seed))
        for n, m, seed in ((24, 8, 7), (48, 12, 5))
    ]
    app, plat = make_scenario("edge-hub-cloud", seed=3, params={"stages": 6})
    every = IntervalMapping.single_interval(6, set(range(1, plat.size + 1)))
    cases.append(
        ("greedy edge-hub-cloud n=6", (app, plat, latency(every, app, plat)))
    )
    rows = []
    for label, (app, plat, threshold) in cases:
        t_s, r_s = _best_time(
            lambda: reference_greedy_minimize_fp(app, plat, threshold),
            repeats=3,
        )
        t_c, r_c = _best_time(
            lambda: greedy_minimize_fp(app, plat, threshold), repeats=3
        )
        assert r_s.mapping == r_c.mapping
        assert r_s.latency == r_c.latency
        assert r_s.failure_probability == r_c.failure_probability
        assert r_s.extras == r_c.extras
        rows.append((label, f"{t_s:.4f}", f"{t_c:.4f}", f"{t_s / t_c:.1f}x"))
    report(
        "E21: greedy enrolment trials, per-trial scalar loop vs cached "
        "interval terms",
        ("instance", "scalar loop seconds", "cached seconds", "speedup"),
        rows,
    )


def test_e21_bench_bulk_local_search(benchmark):
    app, plat, threshold = _instance(32, 10, 3)
    result = benchmark(
        local_search_minimize_fp,
        app,
        plat,
        threshold,
        seed=0,
        restarts=4,
        max_steps=80,
    )
    assert result.failure_probability >= 0.0
