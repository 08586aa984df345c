"""E22 — the unified sweep engine: warm-start chains.

Quantifies the sweep engine's warm-start claim on heuristic threshold
grids where exhaustive enumeration is impossible (n=40, m=10): with
``warm_start="chain"`` the accepted mapping at threshold ``t_i`` seeds
the solver at ``t_{i+1}`` and the chained points run with a reduced
restart budget; the target is >=2x wall-clock over the cold sweep on a
20-point grid with never-worse objectives at every threshold (asserted
per point).
"""

import time

from repro.api import SweepPlan, run_sweep
from repro.analysis.frontier import latency_grid
from tests.helpers import make_instance

from .conftest import report

N, M, SEED = 40, 10, 22
GRID_POINTS = 20


def _instance():
    return make_instance("comm-homogeneous", n=N, m=M, seed=SEED)


def test_e22_warm_vs_cold_chained_sweep():
    app, plat = _instance()
    grid = latency_grid(app, plat, num_points=GRID_POINTS)
    solver = "local-search-min-fp"

    start = time.perf_counter()
    cold = run_sweep(
        SweepPlan.single(app, plat, solver, grid, warm_start="off"),
        seed=0,
    ).cells[0]
    cold_time = time.perf_counter() - start

    start = time.perf_counter()
    warm = run_sweep(
        SweepPlan.single(app, plat, solver, grid, warm_start="chain"),
        seed=0,
    ).cells[0]
    warm_time = time.perf_counter() - start

    assert warm.chained and not cold.chained
    # acceptance: never-worse objectives at every threshold
    worse = 0
    improved = 0
    for c, w in zip(cold.outcomes, warm.outcomes):
        if not c.ok:
            continue
        assert w.ok, f"chained sweep lost feasibility at {c.tag}"
        assert (
            w.result.failure_probability <= c.result.failure_probability
        ), f"chained sweep worse at {c.tag}"
        if w.result.failure_probability < c.result.failure_probability:
            improved += 1
    speedup = cold_time / max(warm_time, 1e-9)
    report(
        f"E22: warm-start chain vs cold sweep "
        f"({solver}, n={N}, m={M}, {len(grid)}-point grid)",
        ("path", "seconds", "speedup"),
        [
            ("cold (restarts=8 per point)", f"{cold_time:.3f}", "1.0x"),
            (
                "chained (seeded, restarts=2)",
                f"{warm_time:.3f}",
                f"{speedup:.1f}x",
            ),
            ("thresholds improved by chain", f"{improved}", "-"),
        ],
    )
    assert worse == 0
    assert speedup >= 2.0, f"warm-start chain speedup only {speedup:.2f}x"


def test_e22_bench_chained_sweep(benchmark):
    """pytest-benchmark row: the chained heuristic sweep path."""
    app, plat = make_instance("comm-homogeneous", n=20, m=8, seed=22)
    grid = latency_grid(app, plat, num_points=8)
    plan = SweepPlan.single(
        app, plat, "local-search-min-fp", grid, warm_start="chain"
    )

    cell = benchmark(lambda: run_sweep(plan, seed=0).cells[0])
    assert cell.chained
