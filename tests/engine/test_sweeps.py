"""The unified sweep engine: plans, dedup, chaining, stores."""

import pytest

from repro.analysis import sweep_frontier
from repro.analysis.frontier import latency_grid
from repro.api import SweepPlan, SweepSolver, run_sweep, solve, threshold_sweep
from repro.engine import MemoryStore
from repro.engine.policy import ErrorKind
from repro.engine.sweeps import SweepInstance
from repro.exceptions import (
    InfeasibleProblemError,
    ReproError,
    SolverError,
)

from tests.engine.synthetic import (
    counting_min_fp,
    invocations,
    register_synthetic,
)
from tests.helpers import make_instance


@pytest.fixture
def instance():
    return make_instance("comm-homogeneous", 4, 4, 11)


def _objectives(cell):
    return [
        (o.result.latency, o.result.failure_probability) if o.ok else None
        for o in cell.outcomes
    ]


class TestPlanModel:
    def test_rejects_empty_instances_and_solvers(self, instance):
        app, plat = instance
        with pytest.raises(ReproError, match="instance"):
            SweepPlan(instances=(), solvers=(SweepSolver("greedy-min-fp"),))
        with pytest.raises(ReproError, match="solver"):
            SweepPlan(
                instances=(SweepInstance(app, plat),), solvers=()
            )

    def test_rejects_unknown_solver_and_bad_warm_start(self, instance):
        app, plat = instance
        with pytest.raises(SolverError, match="unknown solver"):
            SweepPlan.single(app, plat, "no-such-solver", [1.0])
        with pytest.raises(ReproError, match="warm_start"):
            SweepPlan.single(app, plat, "greedy-min-fp", [1.0], warm_start="x")

    def test_rejects_thresholdless_solver(self, instance):
        app, plat = instance
        with pytest.raises(ReproError, match="takes no threshold"):
            SweepPlan.single(app, plat, "theorem1-min-fp", [1.0])

    def test_spec_round_trip_inline(self, instance):
        app, plat = instance
        plan = SweepPlan.single(
            app, plat, "greedy-min-fp", [10.0, 20.0], warm_start="chain"
        )
        plan2 = SweepPlan.from_spec(plan.to_spec())
        assert plan2.thresholds == plan.thresholds
        assert plan2.warm_start == "chain"
        inst = plan2.instances[0]
        assert inst.application.works == app.works
        assert inst.platform.speeds == plat.speeds

    def test_spec_round_trip_scenario(self):
        spec = {
            "instances": [
                {
                    "scenario": "failure-mix",
                    "seed": 5,
                    "params": {"num_processors": 4, "stages": 3},
                }
            ],
            "solvers": [{"name": "greedy-min-fp"}],
            "thresholds": [30.0],
        }
        plan = SweepPlan.from_spec(spec)
        assert plan.instances[0].tag == "failure-mix[seed=5]"
        round_tripped = SweepPlan.from_spec(plan.to_spec())
        assert (
            round_tripped.instances[0].application.works
            == plan.instances[0].application.works
        )

    def test_spec_rejects_thresholds_and_grid_together(self, instance):
        app, plat = instance
        plan = SweepPlan.single(app, plat, "greedy-min-fp", [1.0])
        spec = plan.to_spec()
        spec["grid"] = {"num_points": 5}
        with pytest.raises(ReproError, match="not both"):
            SweepPlan.from_spec(spec)

    def test_auto_grid_requires_min_fp_solver(self, instance):
        app, plat = instance
        plan = SweepPlan.single(app, plat, "greedy-min-latency", None)
        with pytest.raises(ReproError, match="explicit thresholds"):
            run_sweep(plan)

    def test_auto_grid_matches_latency_grid(self, instance):
        app, plat = instance
        plan = SweepPlan.single(app, plat, "greedy-min-fp", None, num_points=6)
        cell = run_sweep(plan).cells[0]
        assert list(cell.thresholds) == latency_grid(app, plat, num_points=6)


class TestDedup:
    def test_duplicate_thresholds_solved_once(self, instance, tmp_path):
        """Satellite bugfix: duplicate grid points dispatch one solve."""
        app, plat = instance
        counter = tmp_path / "count"
        with register_synthetic(
            "counting-sweep", counting_min_fp
        ) as name:
            outcomes = threshold_sweep(
                name,
                app,
                plat,
                [30.0, 40.0, 30.0, 40.0, 30.0],
                opts={"counter_file": str(counter)},
            )
        assert invocations(counter) == 2
        assert len(outcomes) == 5
        assert [o.index for o in outcomes] == [0, 1, 2, 3, 4]
        # duplicates share the solved result
        assert outcomes[0].result is outcomes[2].result
        assert outcomes[0].result is outcomes[4].result
        assert outcomes[1].result is outcomes[3].result

    def test_sweep_frontier_dedupes(self, instance):
        app, plat = instance
        front = sweep_frontier(
            app, plat, "greedy-min-fp", thresholds=[35.0, 35.0, 50.0]
        )
        assert front
        lats = [p.latency for p in front]
        assert lats == sorted(lats)


class TestDelegationEquivalence:
    """sweep_frontier / threshold_sweep == direct per-threshold solves."""

    @pytest.mark.parametrize("solver", ["greedy-min-fp", "anneal-min-fp"])
    def test_threshold_sweep_matches_direct_solves(self, instance, solver):
        app, plat = instance
        grid = latency_grid(app, plat, num_points=6)
        outcomes = threshold_sweep(solver, app, plat, grid, seed=3)
        for i, (t, outcome) in enumerate(zip(grid, outcomes)):
            opts = {"seed": 3 + i} if solver == "anneal-min-fp" else {}
            try:
                direct = solve(solver, app, plat, t, **opts)
            except InfeasibleProblemError:
                assert outcome.error_kind is ErrorKind.INFEASIBLE
                continue
            assert outcome.ok
            assert outcome.result.latency == direct.latency
            assert (
                outcome.result.failure_probability
                == direct.failure_probability
            )

    @pytest.mark.parametrize("kind", ["fig34", "fig5"])
    @pytest.mark.parametrize("with_store", [False, True])
    def test_sweep_frontier_reference_grids(
        self, kind, with_store, fig34, fig5
    ):
        """Acceptance: bit-identical frontiers on the paper's reference
        instances, with and without a store."""
        ref = fig34 if kind == "fig34" else fig5
        app, plat = ref.application, ref.platform
        grid = latency_grid(app, plat, num_points=8)
        expected = []
        for t in grid:
            try:
                expected.append(solve("exhaustive-min-fp", app, plat, t))
            except InfeasibleProblemError:
                continue
        from repro.core.pareto import BiCriteriaPoint, pareto_front

        expected_front = pareto_front(
            [
                BiCriteriaPoint(r.latency, r.failure_probability)
                for r in expected
            ]
        )
        store = MemoryStore() if with_store else None
        front = sweep_frontier(
            app, plat, "exhaustive-min-fp", thresholds=grid, store=store
        )
        assert [
            (p.latency, p.failure_probability) for p in front
        ] == [(p.latency, p.failure_probability) for p in expected_front]

    def test_repeated_sweeps_are_identical(self, instance):
        """A sweep leaves nothing behind that a later sweep or solve on
        the same instance could pick up: each solve starts cold."""
        app, plat = instance
        grid = latency_grid(app, plat, num_points=6)
        before = solve("local-search-min-fp", app, plat, grid[3], seed=5)
        first = threshold_sweep("local-search-min-fp", app, plat, grid, seed=5)
        second = threshold_sweep(
            "local-search-min-fp", app, plat, grid, seed=5
        )
        assert [
            (o.ok, o.result.objectives if o.ok else o.error_kind)
            for o in first
        ] == [
            (o.ok, o.result.objectives if o.ok else o.error_kind)
            for o in second
        ]
        after = solve("local-search-min-fp", app, plat, grid[3], seed=5)
        assert after.objectives == before.objectives
        assert after.mapping == before.mapping

    def test_sweep_entry_points_take_no_shared_cache(self, instance):
        from repro.api import iter_sweep
        from repro.service import SolverService

        app, plat = instance
        plan = SweepPlan.single(app, plat, "greedy-min-fp", [40.0])
        calls = [
            lambda: run_sweep(plan, shared_cache=True),
            lambda: iter_sweep(plan, shared_cache=True),
            lambda: threshold_sweep(
                "greedy-min-fp", app, plat, [40.0], shared_cache=True
            ),
            lambda: sweep_frontier(
                app, plat, "greedy-min-fp", [40.0], shared_cache=True
            ),
            lambda: SolverService(shared_cache=False),
        ]
        for call in calls:
            with pytest.raises(TypeError, match="shared_cache"):
                call()

    def test_crash_still_raises_from_sweep_frontier(self, instance):
        from tests.engine.synthetic import always_crash_min_fp

        app, plat = instance
        with register_synthetic("crashy-sweeps", always_crash_min_fp):
            with pytest.raises(SolverError, match="failed"):
                sweep_frontier(app, plat, "crashy-sweeps", thresholds=[40.0])


@pytest.mark.usefixtures("instance")
class TestExhaustiveOnePass:
    def test_one_pass_matches_per_point_outcomes(self, instance):
        pytest.importorskip("numpy", exc_type=ImportError)
        app, plat = instance
        grid = latency_grid(app, plat, num_points=6)
        one_pass = run_sweep(
            SweepPlan.single(
                app, plat, "exhaustive-min-fp", grid, one_pass_exhaustive=True
            )
        ).cells[0]
        per_point = run_sweep(
            SweepPlan.single(
                app, plat, "exhaustive-min-fp", grid, one_pass_exhaustive=False
            )
        ).cells[0]
        assert _objectives(one_pass) == _objectives(per_point)

    def test_one_pass_skipped_with_store(self, instance, tmp_path):
        """With a store every point must be a real task (keyed, cached)."""
        app, plat = instance
        store = MemoryStore()
        grid = latency_grid(app, plat, num_points=4)
        cell = run_sweep(
            SweepPlan.single(app, plat, "exhaustive-min-fp", grid),
            store=store,
        ).cells[0]
        assert store.stats.writes == cell.unique_thresholds


class TestWarmStartChaining:
    def test_chain_flag_requires_monotone_grid(self, instance):
        app, plat = instance
        monotone = run_sweep(
            SweepPlan.single(
                app, plat, "greedy-min-fp", [30.0, 40.0, 50.0],
                warm_start="chain",
            )
        ).cells[0]
        shuffled = run_sweep(
            SweepPlan.single(
                app, plat, "greedy-min-fp", [40.0, 30.0, 50.0],
                warm_start="chain",
            )
        ).cells[0]
        assert monotone.chained
        assert not shuffled.chained

    def test_descending_grid_also_chains(self, instance):
        app, plat = instance
        cell = run_sweep(
            SweepPlan.single(
                app, plat, "greedy-min-fp", [50.0, 40.0, 30.0],
                warm_start="chain",
            )
        ).cells[0]
        assert cell.chained

    def test_non_warm_startable_solver_never_chains(self, instance):
        app, plat = instance
        cell = run_sweep(
            SweepPlan.single(
                app,
                plat,
                "single-interval-min-fp",
                [30.0, 40.0, 50.0],
                warm_start="chain",
            )
        ).cells[0]
        assert not cell.chained

    def test_deterministic_exact_solver_chain_identical(self, instance):
        """Chaining is a no-op for non-warm-startable exact solvers: the
        frontier is identical to the cold sweep by construction."""
        app, plat = instance
        grid = latency_grid(app, plat, num_points=5)
        cold = run_sweep(
            SweepPlan.single(app, plat, "exhaustive-min-fp", grid)
        ).cells[0]
        chained = run_sweep(
            SweepPlan.single(
                app, plat, "exhaustive-min-fp", grid, warm_start="chain"
            )
        ).cells[0]
        assert not chained.chained
        assert _objectives(cold) == _objectives(chained)

    def test_deterministic_greedy_chain_identical_frontier(self, instance):
        """For the deterministic greedy heuristic the chained frontier
        must equal the cold frontier on this instance (chained per-point
        results are never worse, and the Pareto front of never-worse
        points can only match or dominate; here it matches)."""
        app, plat = instance
        grid = latency_grid(app, plat, num_points=8)
        cold = run_sweep(
            SweepPlan.single(app, plat, "greedy-min-fp", grid)
        ).cells[0]
        chained = run_sweep(
            SweepPlan.single(
                app, plat, "greedy-min-fp", grid, warm_start="chain"
            )
        ).cells[0]
        assert chained.chained
        for c, w in zip(cold.outcomes, chained.outcomes):
            if not c.ok:
                continue
            assert w.ok
            assert (
                w.result.failure_probability,
                w.result.latency,
            ) <= (c.result.failure_probability, c.result.latency)

    @pytest.mark.parametrize(
        "solver", ["local-search-min-fp", "anneal-min-fp"]
    )
    @pytest.mark.parametrize("seed", [0, 7])
    def test_seeded_heuristics_chain_never_worse(self, solver, seed):
        """Satellite: chained sweeps give never-worse objectives than
        cold sweeps for the seeded heuristics, at every threshold."""
        app, plat = make_instance("comm-homogeneous", 5, 4, 23)
        grid = latency_grid(app, plat, num_points=8)
        cold = run_sweep(
            SweepPlan.single(app, plat, solver, grid), seed=seed
        ).cells[0]
        chained = run_sweep(
            SweepPlan.single(app, plat, solver, grid, warm_start="chain"),
            seed=seed,
        ).cells[0]
        assert chained.chained
        for c, w in zip(cold.outcomes, chained.outcomes):
            if not c.ok:
                continue
            # a feasible cold point implies a feasible chained point
            # (the chain seeds with an already-feasible mapping)
            assert w.ok
            assert w.result.failure_probability <= c.result.failure_probability

    def test_chain_passes_warm_start_into_tasks(self, instance):
        app, plat = instance
        cell = run_sweep(
            SweepPlan.single(
                app, plat, "greedy-min-fp", [30.0, 45.0], warm_start="chain"
            )
        ).cells[0]
        assert "warm_starts" not in cell.outcomes[0].task.opts
        warm = cell.outcomes[1].task.opts["warm_starts"]
        assert warm[0]["kind"] == "interval-mapping"

    def test_chained_store_rerun_is_fully_warm(self, instance, tmp_path):
        """Satellite: store-warm chained sweeps re-solve nothing — the
        seed mapping is part of each task's store key."""
        app, plat = instance
        counter = tmp_path / "count"
        store = MemoryStore()
        grid = [30.0, 40.0, 55.0]
        with register_synthetic(
            "counting-chain", counting_min_fp, warm_startable=False
        ) as name:
            # warm_startable=False: the synthetic solver cannot accept
            # warm_starts opts; chain falls back to the batch path but
            # the store round-trip is what we are testing
            plan = SweepPlan.single(
                app,
                plat,
                name,
                grid,
                opts={"counter_file": str(counter)},
                warm_start="chain",
            )
            run_sweep(plan, store=store)
            before = invocations(counter)
            warm = run_sweep(plan, store=store)
            assert invocations(counter) == before
        assert all(o.cached for o in warm.cells[0].outcomes)

    def test_real_chained_store_rerun_is_fully_warm(self, instance):
        app, plat = instance
        store = MemoryStore()
        plan = SweepPlan.single(
            app,
            plat,
            "local-search-min-fp",
            [30.0, 40.0, 55.0],
            warm_start="chain",
        )
        cold = run_sweep(plan, seed=2, store=store)
        warm = run_sweep(plan, seed=2, store=store)
        assert all(o.cached for o in warm.cells[0].outcomes)
        assert _objectives(cold.cells[0]) == _objectives(warm.cells[0])

    def test_chain_opts_reduce_effort(self, instance):
        app, plat = instance
        cell = run_sweep(
            SweepPlan.single(
                app,
                plat,
                "local-search-min-fp",
                [30.0, 45.0, 60.0],
                warm_start="chain",
            ),
            seed=0,
        ).cells[0]
        # first point runs cold (default restarts), chained points carry
        # the default chain_opts reduction
        assert "restarts" not in cell.outcomes[0].task.opts
        assert cell.outcomes[1].task.opts["restarts"] == 2
        assert cell.outcomes[1].result.extras["restarts"] == 2


class TestRunSweepShape:
    def test_multi_instance_multi_solver_cells(self):
        app1, plat1 = make_instance("comm-homogeneous", 3, 3, 1)
        app2, plat2 = make_instance("comm-homogeneous", 3, 3, 2)
        plan = SweepPlan(
            instances=(
                SweepInstance(app1, plat1, tag="a"),
                SweepInstance(app2, plat2, tag="b"),
            ),
            solvers=(
                SweepSolver("greedy-min-fp"),
                SweepSolver("single-interval-min-fp"),
            ),
            thresholds=(30.0, 50.0),
        )
        result = run_sweep(plan)
        assert len(result.cells) == 4
        cell = result.cell("a", "greedy-min-fp")
        assert cell.instance_tag == "a"
        with pytest.raises(ReproError, match="2 sweep cells"):
            result.cell("a")
        with pytest.raises(ReproError, match="0 sweep cells"):
            result.cell("c", "greedy-min-fp")

    def test_workers_match_serial(self, instance):
        app, plat = instance
        grid = latency_grid(app, plat, num_points=5)
        plan = SweepPlan.single(app, plat, "local-search-min-fp", grid)
        serial = run_sweep(plan, seed=4).cells[0]
        parallel = run_sweep(plan, seed=4, workers=2).cells[0]
        assert _objectives(serial) == _objectives(parallel)

    def test_empty_grid(self, instance):
        app, plat = instance
        cell = run_sweep(
            SweepPlan.single(app, plat, "greedy-min-fp", [])
        ).cells[0]
        assert cell.outcomes == ()
        assert cell.frontier() == []
