"""E21 — candidate scoring for the heuristics at n=20-60.

Instances with dozens of stages are exactly where the heuristics earn
their keep: the interval-mapping space at n=32/m=10 has ~10^14 members
(~10^19 at n=48/m=12), so the exhaustive solvers (even vectorized,
bench E20) can never touch it.  This bench measures what each
heuristic's fast path buys there while asserting its contract:
*identical* final mappings and accepted-move counts or traces under the
same seed.  Local search walks shuffled move indices, rejects on a
move's failure probability alone what its rank proves no better and
scores the rest from cached interval terms; it is timed against its
whole-neighbourhood reference loop
(``tests/algorithms/local_search_reference.py``).  Annealing draws each
proposal by index and scores it from cached interval terms; it is timed
against its own reference loop (``tests/algorithms/anneal_reference.py``).
Greedy's cached trial scoring is timed against its per-trial scalar
reference loop.  No bench here needs numpy.
"""

import math
import time

from repro.algorithms.bicriteria import count_interval_mappings
from repro.algorithms.heuristics import (
    AnnealingSchedule,
    anneal_minimize_fp,
    greedy_minimize_fp,
    local_search_minimize_fp,
)
from repro.core.mapping import IntervalMapping
from repro.core.metrics import latency
from tests.algorithms.anneal_reference import reference_anneal_minimize_fp
from tests.algorithms.local_search_reference import (
    reference_local_search_minimize_fp,
)
from tests.conftest import make_instance

from .conftest import report  # noqa: F401

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


def _timed_runs(fn, app, plat, threshold, repeats=2, **opts):
    """Best time of ``repeats`` seeded runs plus the result; every run's
    accepted trace and result must equal the first run's."""
    best = float("inf")
    first = None
    for _ in range(repeats):
        trace: list = []
        start = time.perf_counter()
        result = fn(app, plat, threshold, seed=0, trace=trace, **opts)
        best = min(best, time.perf_counter() - start)
        if first is None:
            first = (trace, result)
        else:
            assert trace == first[0] and result == first[1]
    return best, first


def _annealing_pair(app, plat, threshold, steps, repeats=2):
    """Reference loop vs solver: ``(reference s, solver s)``, with the
    accepted traces and results asserted identical in every run."""
    schedule = AnnealingSchedule(steps=steps)
    t_ref, (trace_ref, r_ref) = _timed_runs(
        reference_anneal_minimize_fp, app, plat, threshold, repeats,
        schedule=schedule,
    )
    t_sol, (trace_sol, r_sol) = _timed_runs(
        anneal_minimize_fp, app, plat, threshold, repeats, schedule=schedule
    )
    assert trace_sol == trace_ref and trace_sol
    assert r_sol.mapping == r_ref.mapping
    assert r_sol.latency == r_ref.latency
    assert r_sol.failure_probability == r_ref.failure_probability
    return t_ref, t_sol


def test_e21_local_search_reference_identity():
    """Local search: the whole-neighbourhood reference loop vs indexed
    moves with the failure-probability pre-check, scored from cached
    terms."""
    rows = []
    checks = []
    for n, m, seed in ((24, 8, 7), (32, 10, 3), (48, 12, 5)):
        app, plat, threshold = _instance(n, m, seed)
        space = count_interval_mappings(n, m)
        size = f"n={n} m={m} (~10^{int(math.log10(space))} mappings)"
        budget = {"restarts": 4, "max_steps": 80}
        t_ref, (trace_ref, r_ref) = _timed_runs(
            reference_local_search_minimize_fp, app, plat, threshold, **budget
        )
        t_sol, (trace_sol, r_sol) = _timed_runs(
            local_search_minimize_fp, app, plat, threshold, **budget
        )
        assert trace_sol == trace_ref and trace_sol
        assert r_sol.mapping == r_ref.mapping
        assert r_sol.latency == r_ref.latency
        assert r_sol.failure_probability == r_ref.failure_probability
        assert r_sol.extras["steps"] == r_ref.extras["steps"]
        speedup = t_ref / t_sol
        rows.append(
            (
                f"local search {size}",
                f"{t_ref:.4f}",
                f"{t_sol:.4f}",
                f"{speedup:.1f}x",
            )
        )
        checks.append((n, speedup))

    report(
        "E21: local search, whole-neighbourhood reference loop vs indexed "
        "cached moves",
        ("instance", "reference seconds", "solver seconds", "speedup"),
        rows,
    )
    # a safety margin below the measured speedups so CI noise cannot
    # flake the job
    for n, speedup in checks:
        assert speedup >= 1.5, (n, speedup)


def test_e21_annealing_reference_identity():
    """Annealing at the short schedule: the whole-neighbourhood
    reference loop vs indexed proposals scored from cached terms."""
    rows = []
    for n, m, seed in ((24, 8, 7), (32, 10, 3), (48, 12, 5)):
        app, plat, threshold = _instance(n, m, seed)
        space = count_interval_mappings(n, m)
        size = f"n={n} m={m} (~10^{int(math.log10(space))} mappings)"
        t_ref, t_sol = _annealing_pair(app, plat, threshold, ANNEAL_STEPS)
        rows.append(
            (
                f"annealing {size}",
                f"{t_ref:.4f}",
                f"{t_sol:.4f}",
                f"{t_ref / t_sol:.1f}x",
            )
        )
        # measured 9-40x; a wide margin so CI noise cannot flake the job
        assert t_ref / t_sol >= 3.0, (n, t_ref / t_sol)
    report(
        "E21: annealing, whole-neighbourhood reference loop vs indexed "
        "cached proposals",
        ("instance", "reference seconds", "solver seconds", "speedup"),
        rows,
    )


def test_e21_proposal_throughput():
    """Annealing proposal throughput (proposals/second), both loops."""
    app, plat, threshold = _instance(32, 10, 3)
    t_ref, t_sol = _annealing_pair(app, plat, threshold, ANNEAL_STEPS)
    report(
        "E21: annealing proposal throughput (n=32 m=10)",
        ("path", "proposals/s throughput"),
        [
            ("whole-neighbourhood reference loop", f"{ANNEAL_STEPS / t_ref:.0f}"),
            ("indexed cached proposals", f"{ANNEAL_STEPS / t_sol:.0f}"),
        ],
    )
    assert ANNEAL_STEPS / t_sol >= 3.0 * (ANNEAL_STEPS / t_ref)


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


def test_e21_bench_local_search(benchmark):
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
