"""Streaming sweep execution: ``iter_sweep`` over the plan task graph."""

import pytest

from repro.api import (
    SweepInstance,
    SweepPlan,
    SweepPoint,
    SweepSolver,
    iter_sweep,
    run_sweep,
)
from repro.engine import MemoryStore
from repro.engine.policy import ErrorKind
from repro.exceptions import ReproError

from tests.engine.synthetic import (
    counting_min_fp,
    crash_at_min_fp,
    invocations,
    register_synthetic,
    sleepy_min_fp,
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


def _two_by_two_plan():
    app1, plat1 = make_instance("comm-homogeneous", 3, 3, 1)
    app2, plat2 = make_instance("comm-homogeneous", 3, 3, 2)
    return SweepPlan(
        instances=(
            SweepInstance(app1, plat1, tag="a"),
            SweepInstance(app2, plat2, tag="b"),
        ),
        solvers=(
            SweepSolver("greedy-min-fp"),
            SweepSolver("local-search-min-fp"),
        ),
        thresholds=(30.0, 50.0),
    )


class TestStreamCells:
    def test_in_order_matches_run_sweep(self):
        plan = _two_by_two_plan()
        drained = run_sweep(plan, seed=3)
        streamed = list(iter_sweep(plan, seed=3, in_order=True))
        assert [
            (c.instance_tag, c.solver) for c in streamed
        ] == [(c.instance_tag, c.solver) for c in drained.cells]
        for got, want in zip(streamed, drained.cells):
            assert _objectives(got) == _objectives(want)
            assert got.thresholds == want.thresholds
            assert got.chained == want.chained

    def test_completion_order_same_cells(self):
        """``in_order=False`` reorders delivery, never content."""
        plan = _two_by_two_plan()
        drained = {
            (c.instance_tag, c.solver): _objectives(c)
            for c in run_sweep(plan, seed=3).cells
        }
        streamed = {
            (c.instance_tag, c.solver): _objectives(c)
            for c in iter_sweep(plan, seed=3, in_order=False)
        }
        assert streamed == drained

    def test_completion_order_beats_plan_order(self, instance):
        """A fast cell lands before a slow one dispatched earlier."""
        app, plat = instance
        with register_synthetic("sleepy-stream", sleepy_min_fp) as name:
            plan = SweepPlan(
                instances=(SweepInstance(app, plat, tag="i"),),
                solvers=(
                    SweepSolver(name, opts={"sleep": 1.5}),
                    SweepSolver("greedy-min-fp"),
                ),
                thresholds=(40.0,),
            )
            unordered = list(
                iter_sweep(plan, workers=2, in_order=False)
            )
            ordered = list(iter_sweep(plan, workers=2, in_order=True))
        assert unordered[0].solver == "greedy-min-fp"
        assert ordered[0].solver == name

    def test_empty_grid_cells_stream_first(self, instance):
        app, plat = instance
        plan = SweepPlan.single(app, plat, "greedy-min-fp", [])
        cells = list(iter_sweep(plan))
        assert len(cells) == 1
        assert cells[0].outcomes == ()

    def test_bad_stream_mode_rejected(self, instance):
        app, plat = instance
        plan = SweepPlan.single(app, plat, "greedy-min-fp", [30.0])
        with pytest.raises(ReproError, match="stream"):
            next(iter(iter_sweep(plan, stream="everything")))


class TestStreamPoints:
    def test_points_match_cell_outcomes(self, instance):
        app, plat = instance
        grid = [30.0, 45.0, 30.0, 60.0]  # duplicate fans out
        plan = SweepPlan.single(app, plat, "greedy-min-fp", grid)
        cell = run_sweep(plan, seed=1).cells[0]
        points = list(iter_sweep(plan, seed=1, stream="points"))
        assert all(isinstance(p, SweepPoint) for p in points)
        assert [p.index for p in points] == [0, 1, 2, 3]
        assert [p.threshold for p in points] == grid
        for point, outcome in zip(points, cell.outcomes):
            assert point.instance_tag == cell.instance_tag
            assert point.solver == "greedy-min-fp"
            assert point.outcome.index == outcome.index
            assert (
                point.outcome.result.latency == outcome.result.latency
            )

    def test_point_ids_span_cells(self):
        plan = _two_by_two_plan()
        points = list(iter_sweep(plan, seed=3, stream="points"))
        # 4 cells x 2 grid points, plan order under in_order=True
        assert [
            (p.instance_tag, p.solver, p.index) for p in points
        ] == [
            (tag, solver, i)
            for tag in ("a", "b")
            for solver in ("greedy-min-fp", "local-search-min-fp")
            for i in (0, 1)
        ]


class TestReferenceGridEquality:
    @pytest.mark.parametrize("kind", ["fig34", "fig5"])
    @pytest.mark.parametrize("with_store", [False, True])
    def test_iter_sweep_matches_run_sweep(
        self, kind, with_store, fig34, fig5
    ):
        """Acceptance: streaming the paper's reference grids gives
        outcomes identical to the drained sweep, with and without a
        result store."""
        from repro.analysis.frontier import latency_grid

        ref = fig34 if kind == "fig34" else fig5
        app, plat = ref.application, ref.platform
        grid = latency_grid(app, plat, num_points=6)
        plan = SweepPlan(
            instances=(SweepInstance(app, plat, tag=kind),),
            solvers=(
                SweepSolver("greedy-min-fp"),
                SweepSolver("single-interval-min-fp"),
            ),
            thresholds=tuple(grid),
        )
        drained = run_sweep(plan, seed=0).cells
        store = MemoryStore() if with_store else None
        streamed = list(iter_sweep(plan, seed=0, store=store))
        assert [_objectives(c) for c in streamed] == [
            _objectives(c) for c in drained
        ]
        if store is not None:
            # and a second streaming pass is fully store-warm
            warm = list(iter_sweep(plan, seed=0, store=store))
            assert all(
                o.cached for c in warm for o in c.outcomes if o.ok
            )
            assert [_objectives(c) for c in warm] == [
                _objectives(c) for c in drained
            ]


class TestChainCrashFallback:
    def test_mid_chain_crash_falls_back_to_last_good(self, instance):
        """Satellite: a crashed chain point breaks the chain gracefully
        — the next point re-seeds from the last good mapping."""
        from repro.core.serialization import mapping_to_dict

        app, plat = instance
        with register_synthetic(
            "crash-at-stream", crash_at_min_fp, warm_startable=True
        ) as name:
            plan = SweepPlan(
                instances=(SweepInstance(app, plat, tag="i"),),
                solvers=(
                    SweepSolver(name, opts={"crash_at": 40.0}),
                ),
                thresholds=(30.0, 40.0, 50.0, 60.0),
                warm_start="chain",
            )
            cell = run_sweep(plan).cells[0]
        assert cell.chained
        first, crashed, third, fourth = cell.outcomes
        assert first.ok
        assert "warm_starts" not in first.task.opts
        assert crashed.error_kind is ErrorKind.CRASH
        # the crashed point's own seed came from the first point
        assert crashed.task.opts["warm_starts"] == [
            mapping_to_dict(first.result.mapping)
        ]
        # the chain survives: point 3 falls back to the last good seed
        assert third.ok
        assert third.task.opts["warm_starts"] == [
            mapping_to_dict(first.result.mapping)
        ]
        # and then re-chains from point 3 onwards
        assert fourth.ok
        assert fourth.task.opts["warm_starts"] == [
            mapping_to_dict(third.result.mapping)
        ]

    def test_leading_crash_leaves_next_point_unseeded(self, instance):
        """No good point yet: the next chain point runs cold (full
        effort, no warm start) instead of being cancelled."""
        app, plat = instance
        with register_synthetic(
            "crash-at-stream", crash_at_min_fp, warm_startable=True
        ) as name:
            plan = SweepPlan(
                instances=(SweepInstance(app, plat, tag="i"),),
                solvers=(SweepSolver(name, opts={"crash_at": 30.0}),),
                thresholds=(30.0, 45.0, 60.0),
                warm_start="chain",
            )
            cell = run_sweep(plan).cells[0]
        assert cell.chained
        crashed, second, third = cell.outcomes
        assert crashed.error_kind is ErrorKind.CRASH
        assert second.ok
        assert "warm_starts" not in second.task.opts
        assert third.ok
        assert "warm_starts" in third.task.opts

    def test_crashy_chain_matches_in_parallel(self, instance):
        app, plat = instance
        with register_synthetic(
            "crash-at-stream", crash_at_min_fp, warm_startable=True
        ) as name:
            plan = SweepPlan(
                instances=(SweepInstance(app, plat, tag="i"),),
                solvers=(SweepSolver(name, opts={"crash_at": 40.0}),),
                thresholds=(30.0, 40.0, 50.0, 60.0),
                warm_start="chain",
            )
            serial = run_sweep(plan).cells[0]
            parallel = run_sweep(plan, workers=2).cells[0]
        assert _objectives(serial) == _objectives(parallel)


class TestWarmupSkips:
    """Store-warm points are answered from the store, never re-solved."""

    def test_warm_probe_is_stats_neutral(self, instance):
        """Store stats count exactly one lookup per unique task, cold
        and warm: duplicate grid points are never probed twice."""
        app, plat = instance
        plan = SweepPlan.single(
            app, plat, "greedy-min-fp", [30.0, 45.0, 30.0]
        )
        store = MemoryStore()
        run_sweep(plan, store=store)
        assert store.stats.misses == 2
        assert store.stats.writes == 2
        run_sweep(plan, store=store)
        assert store.stats.hits == 2
        assert store.stats.misses == 2


    def test_store_warm_plan_invokes_no_solver(self, instance, tmp_path):
        app, plat = instance
        counter = tmp_path / "count"
        store = MemoryStore()
        with register_synthetic("counting-stream", counting_min_fp) as name:
            plan = SweepPlan.single(
                app,
                plat,
                name,
                [30.0, 45.0, 60.0],
                opts={"counter_file": str(counter)},
            )
            cold = list(iter_sweep(plan, store=store, stream="points"))
            assert invocations(counter) == 3
            warm = list(iter_sweep(plan, store=store, stream="points"))
        assert invocations(counter) == 3
        assert all(p.outcome.cached for p in warm)
        assert sorted(
            (p.index, p.outcome.result.objectives) for p in warm
        ) == sorted((p.index, p.outcome.result.objectives) for p in cold)

    def test_partly_warm_plan_solves_only_cold_points(
        self, instance, tmp_path
    ):
        app, plat = instance
        counter = tmp_path / "count"
        store = MemoryStore()
        opts = {"counter_file": str(counter)}
        with register_synthetic("counting-stream", counting_min_fp) as name:
            run_sweep(
                SweepPlan.single(app, plat, name, [30.0, 45.0], opts=opts),
                store=store,
            )
            assert invocations(counter) == 2
            wider = SweepPlan.single(
                app, plat, name, [30.0, 45.0, 75.0], opts=opts
            )
            points = list(iter_sweep(wider, store=store, stream="points"))
        assert invocations(counter) == 3
        assert sorted((p.index, p.outcome.cached) for p in points) == [
            (0, True),
            (1, True),
            (2, False),
        ]


class TestWorkersParity:
    def test_multi_cell_parallel_matches_serial(self):
        plan = _two_by_two_plan()
        serial = run_sweep(plan, seed=4)
        parallel = run_sweep(plan, seed=4, workers=2)
        assert [_objectives(c) for c in serial.cells] == [
            _objectives(c) for c in parallel.cells
        ]

    def test_streaming_points_parallel_matches_serial(self, instance):
        app, plat = instance
        plan = SweepPlan.single(
            app, plat, "local-search-min-fp", [30.0, 45.0, 60.0]
        )
        serial = [
            (p.index, p.outcome.result.latency if p.outcome.ok else None)
            for p in iter_sweep(plan, seed=6, stream="points")
        ]
        parallel = [
            (p.index, p.outcome.result.latency if p.outcome.ok else None)
            for p in iter_sweep(
                plan, seed=6, workers=2, stream="points"
            )
        ]
        assert serial == parallel
