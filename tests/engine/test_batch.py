"""Batch executor: parallel == serial, deterministic seeding, isolation."""

import pytest

from repro import api
from repro.analysis.frontier import sweep_frontier
from repro.exceptions import SolverError
from repro.simulation import validate_batch_fp
from repro.workloads.reference import figure5_instance

from tests.helpers import make_instance


def _mixed_tasks():
    tasks = [
        api.BatchTask(
            "greedy-min-fp",
            *make_instance("comm-homogeneous", 3, 4, seed),
            threshold=80.0,
            tag=f"greedy-{seed}",
        )
        for seed in range(4)
    ]
    tasks += [
        api.BatchTask(
            "local-search-min-latency",
            *make_instance("fully-heterogeneous", 3, 3, seed),
            threshold=0.95,
            opts={"restarts": 2, "max_steps": 40},
            tag=f"ls-{seed}",
        )
        for seed in range(3)
    ]
    tasks.append(
        api.BatchTask(
            "theorem1-min-fp",
            *make_instance("fully-homogeneous", 2, 3, 9),
            tag="t1",
        )
    )
    return tasks


def _outcome_key(outcome):
    if outcome.result is None:
        return (outcome.index, outcome.tag, outcome.error)
    return (
        outcome.index,
        outcome.tag,
        outcome.result.latency,
        outcome.result.failure_probability,
        outcome.result.mapping,
    )


class TestRunBatch:
    def test_parallel_identical_to_serial(self):
        tasks = _mixed_tasks()
        serial = api.run_batch(tasks, seed=5)
        parallel = api.run_batch(tasks, workers=3, seed=5)
        assert [_outcome_key(o) for o in serial] == [
            _outcome_key(o) for o in parallel
        ]

    def test_deterministic_across_runs(self):
        tasks = _mixed_tasks()
        first = api.run_batch(tasks, workers=2, seed=1)
        second = api.run_batch(tasks, workers=2, seed=1)
        assert [_outcome_key(o) for o in first] == [
            _outcome_key(o) for o in second
        ]

    def test_outcomes_keep_input_order_and_tasks(self):
        tasks = _mixed_tasks()
        outcomes = api.run_batch(tasks, workers=2)
        assert [o.index for o in outcomes] == list(range(len(tasks)))
        for task, outcome in zip(tasks, outcomes):
            assert outcome.task.solver == task.solver
            assert outcome.tag == task.tag
            assert outcome.elapsed >= 0.0

    def test_explicit_opts_seed_wins_over_base_seed(self):
        app, plat = make_instance("comm-homogeneous", 3, 4, 2)
        task = api.BatchTask(
            "local-search-min-fp",
            app,
            plat,
            threshold=80.0,
            opts={"seed": 123},
        )
        a = api.run_batch([task], seed=1)[0]
        b = api.run_batch([task], seed=999)[0]
        assert _outcome_key(a) == _outcome_key(b)

    def test_infeasible_task_is_isolated(self):
        app, plat = make_instance("comm-homogeneous", 3, 4, 3)
        tasks = [
            api.BatchTask("greedy-min-fp", app, plat, threshold=80.0),
            api.BatchTask("greedy-min-fp", app, plat, threshold=1e-9),
            api.BatchTask("greedy-min-fp", app, plat, threshold=80.0),
        ]
        outcomes = api.run_batch(tasks, workers=2)
        assert outcomes[0].ok and outcomes[2].ok
        assert not outcomes[1].ok
        assert "InfeasibleProblemError" in outcomes[1].error

    def test_nan_threshold_task_fails_not_ok(self):
        app, plat = make_instance("comm-homogeneous", 3, 4, 3)
        tasks = [
            api.BatchTask("greedy-min-fp", app, plat, threshold=80.0),
            api.BatchTask("greedy-min-fp", app, plat, threshold=float("nan")),
        ]
        outcomes = api.run_batch(tasks)
        assert outcomes[0].ok
        assert not outcomes[1].ok
        assert outcomes[1].error_kind is api.ErrorKind.UNSUPPORTED
        assert "NaN threshold" in outcomes[1].error

    def test_malformed_batch_rejected_upfront(self):
        app, plat = make_instance("comm-homogeneous", 2, 2, 0)
        with pytest.raises(SolverError, match="unknown solver"):
            api.run_batch([api.BatchTask("nope", app, plat)])
        with pytest.raises(SolverError, match="requires a threshold"):
            api.run_batch([api.BatchTask("greedy-min-fp", app, plat)])
        with pytest.raises(SolverError, match="does not take a threshold"):
            api.run_batch(
                [api.BatchTask("theorem1-min-fp", app, plat, threshold=5.0)]
            )

    def test_out_of_domain_task_is_isolated_not_fatal(self):
        # the batch path dispatches through registry.solve, so domain
        # violations get the same validation as direct solves but stay
        # per-task
        app, plat = make_instance("comm-homogeneous", 2, 3, 0)
        ok_task = api.BatchTask("greedy-min-fp", app, plat, threshold=80.0)
        bad_task = api.BatchTask("alg1", app, plat, threshold=80.0)
        outcomes = api.run_batch([ok_task, bad_task])
        assert outcomes[0].ok
        assert not outcomes[1].ok
        assert "does not support" in outcomes[1].error

    def test_empty_batch(self):
        assert api.run_batch([]) == []


class TestMaxBuffered:
    """``iter_batch(in_order=True, max_buffered=N)`` bounds the buffer."""

    def test_rejects_non_positive(self):
        app, plat = make_instance("comm-homogeneous", 2, 2, 0)
        task = api.BatchTask("greedy-min-fp", app, plat, threshold=80.0)
        with pytest.raises(SolverError, match="max_buffered"):
            list(api.iter_batch([task], max_buffered=0))

    def test_windowed_results_identical_to_unbounded(self):
        tasks = _mixed_tasks()
        unbounded = list(api.iter_batch(tasks, workers=2, seed=5))
        windowed = list(
            api.iter_batch(tasks, workers=2, seed=5, max_buffered=2)
        )
        assert [_outcome_key(o) for o in unbounded] == [
            _outcome_key(o) for o in windowed
        ]

    def test_stalled_head_task_bounds_dispatch(self, tmp_path):
        """With the head task deliberately stalled, at most
        ``max_buffered`` later tasks ever start — the unbounded path
        would run all of them and buffer their outcomes."""
        import threading
        import time

        from tests.engine.synthetic import (
            counting_min_fp,
            gated_min_fp,
            invocations,
            register_synthetic,
        )

        gate = tmp_path / "gate"
        gated_counter = tmp_path / "gated-count"
        fast_counter = tmp_path / "fast-count"
        app, plat = make_instance("comm-homogeneous", 3, 4, 0)
        tasks = [
            api.BatchTask(
                "gated-min-fp",
                app,
                plat,
                threshold=80.0,
                opts={
                    "gate": str(gate),
                    "counter_file": str(gated_counter),
                },
            )
        ]
        tasks += [
            api.BatchTask(
                "counting-min-fp",
                app,
                plat,
                threshold=80.0,
                opts={"counter_file": str(fast_counter)},
                tag=f"fast-{i}",
            )
            for i in range(7)
        ]

        outcomes = []

        def consume():
            for outcome in api.iter_batch(
                tasks, workers=2, max_buffered=2
            ):
                outcomes.append(outcome)

        with register_synthetic("gated-min-fp", gated_min_fp):
            with register_synthetic("counting-min-fp", counting_min_fp):
                consumer = threading.Thread(target=consume)
                consumer.start()
                try:
                    # wait for the stalled head task to actually start
                    deadline = time.monotonic() + 5.0
                    while (
                        invocations(gated_counter) == 0
                        and time.monotonic() < deadline
                    ):
                        time.sleep(0.01)
                    assert invocations(gated_counter) == 1
                    # give an over-eager dispatcher time to misbehave
                    time.sleep(0.3)
                    assert invocations(fast_counter) <= 2
                finally:
                    gate.write_text("open")  # release the head task
                    consumer.join(timeout=20.0)
                assert not consumer.is_alive()

        assert [o.index for o in outcomes] == list(range(len(tasks)))
        assert all(o.ok for o in outcomes)
        assert invocations(fast_counter) == 7


class TestThresholdSweep:
    def test_sweep_orders_and_tags(self):
        fig5 = figure5_instance()
        thresholds = [10.0, 22.0, 50.0, 200.0]
        outcomes = api.threshold_sweep(
            "single-interval-min-fp",
            fig5.application,
            fig5.platform,
            thresholds,
        )
        assert len(outcomes) == len(thresholds)
        assert outcomes[1].tag == "threshold=22"
        # FP can only improve as the latency budget loosens
        fps = [o.result.failure_probability for o in outcomes if o.ok]
        assert fps == sorted(fps, reverse=True)

    def test_sweep_parallel_equals_serial(self):
        app, plat = make_instance("comm-homogeneous", 4, 4, 21)
        thresholds = [20.0, 40.0, 60.0, 80.0, 100.0, 150.0]
        serial = api.threshold_sweep(
            "greedy-min-fp", app, plat, thresholds
        )
        parallel = api.threshold_sweep(
            "greedy-min-fp", app, plat, thresholds, workers=3
        )
        assert [_outcome_key(o) for o in serial] == [
            _outcome_key(o) for o in parallel
        ]


class TestFrontierIntegration:
    def test_named_solver_matches_callable(self):
        from repro.algorithms.heuristics import greedy_minimize_fp

        app, plat = make_instance("comm-homogeneous", 4, 4, 31)
        by_name = sweep_frontier(app, plat, "greedy-min-fp", num_points=8)
        by_callable = sweep_frontier(app, plat, greedy_minimize_fp, num_points=8)
        assert [(p.latency, p.failure_probability) for p in by_name] == [
            (p.latency, p.failure_probability) for p in by_callable
        ]

    def test_parallel_sweep_matches_serial(self):
        app, plat = make_instance("comm-homogeneous", 4, 4, 31)
        serial = sweep_frontier(app, plat, "greedy-min-fp", num_points=8)
        parallel = sweep_frontier(
            app, plat, "greedy-min-fp", num_points=8, workers=2
        )
        assert [(p.latency, p.failure_probability) for p in serial] == [
            (p.latency, p.failure_probability) for p in parallel
        ]

    def test_parallel_needs_registered_name(self):
        from repro.algorithms.heuristics import greedy_minimize_fp

        app, plat = make_instance("comm-homogeneous", 3, 3, 1)
        with pytest.raises(ValueError, match="registered solver name"):
            sweep_frontier(app, plat, greedy_minimize_fp, workers=4)


class TestMonteCarloCrossCheck:
    def test_validate_batch_fp_agrees_with_analytic(self):
        pytest.importorskip("numpy", exc_type=ImportError)
        tasks = [
            api.BatchTask(
                "greedy-min-fp",
                *make_instance("comm-homogeneous", 3, 4, seed),
                threshold=80.0,
            )
            for seed in range(3)
        ]
        outcomes = api.run_batch(tasks, workers=2)
        reports = validate_batch_fp(outcomes, trials=20_000, seed=0)
        assert len(reports) == sum(1 for o in outcomes if o.ok)
        for report in reports:
            assert 0.0 <= report["analytic"] <= 1.0
            # 5-sigma gate: loose enough to be stable, tight enough to
            # catch a wrong formula
            assert abs(report["z"]) < 5.0
