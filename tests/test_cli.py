"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "repro-pipeline" in capsys.readouterr().out


class TestCommands:
    def test_examples_prints_paper_numbers(self, capsys):
        assert main(["examples"]) == 0
        out = capsys.readouterr().out
        assert "105" in out
        assert "0.64" in out
        assert "0.196637" in out

    def test_frontier(self, capsys):
        assert main(["frontier", "--stages", "2", "--processors", "3"]) == 0
        out = capsys.readouterr().out
        assert "Pareto frontier" in out

    @pytest.mark.parametrize(
        "algorithm", ["min-fp", "min-latency", "alg1", "alg2", "alg3", "alg4"]
    )
    def test_solve(self, algorithm, capsys):
        args = ["solve", algorithm, "--stages", "2", "--processors", "3"]
        if algorithm in ("alg1", "alg3"):
            args += ["--threshold", "1000"]
        elif algorithm in ("alg2", "alg4"):
            args += ["--threshold", "0.99"]
        assert main(args) == 0
        assert "SolverResult" in capsys.readouterr().out

class TestSimulateCommand:
    SPEC = {
        "schema": 1,
        "kind": "simulation",
        "instance": {"scenario": "failure-mix", "seed": 3, "params": {"stages": 6}},
        "solver": "greedy-min-fp",
        "threshold": 80.0,
        "policy": "resolve-warm",
        "trace": {"kind": "uniform", "items": 20, "rate": 0.05},
        "failures": {"events": [{"time": 60.0, "action": "kill", "processor": 2}]},
        "seed": 7,
    }

    @pytest.fixture
    def spec_path(self, tmp_path):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(self.SPEC))
        return str(path)

    def test_simulate_table(self, spec_path, capsys):
        assert main(["simulate", spec_path]) == 0
        out = capsys.readouterr().out
        assert "re-solves:" in out
        assert "latency" in out
        assert "resolve-warm" in out

    def test_simulate_json_reports_resolves(self, spec_path, capsys):
        assert main(["simulate", spec_path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["resolves"] >= 1
        assert payload["items_total"] == 20

    def test_simulate_stream_emits_epoch_ndjson(self, spec_path, capsys):
        assert main(["simulate", spec_path, "--stream"]) == 0
        lines = capsys.readouterr().out.splitlines()
        epochs = [json.loads(ln) for ln in lines if ln.startswith("{")]
        assert epochs and all("epoch" in e for e in epochs)

    def test_simulate_policy_and_seed_overrides(self, spec_path, capsys):
        assert main(
            ["simulate", spec_path, "--policy", "none", "--seed", "9", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["resolves"] == 0

    def test_simulate_rejects_sweep_spec(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text(
            json.dumps(
                {
                    "instances": [{"scenario": "failure-mix", "seed": 1}],
                    "solvers": ["greedy-min-fp"],
                    "thresholds": [50.0],
                }
            )
        )
        assert main(["simulate", str(path)]) == 2
        assert "sweep" in capsys.readouterr().err

    def test_simulate_rejects_bad_spec(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**self.SPEC, "polcy": "none"}))
        assert main(["simulate", str(path)]) == 2
        assert "polcy" in capsys.readouterr().err

    def test_simulate_missing_file(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path / "nope.json")]) == 2
        assert "cannot read spec" in capsys.readouterr().err


class TestBatchCommand:
    BASE = [
        "batch",
        "--solver",
        "greedy-min-fp",
        "--instances",
        "4",
        "--stages",
        "3",
        "--processors",
        "4",
        "--threshold",
        "80",
        "--seed",
        "7",
    ]

    def test_json_output_shape(self, capsys):
        assert main([*self.BASE, "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 4
        for i, record in enumerate(records):
            assert record["index"] == i
            assert record["solver"] == "greedy-min-fp"
            assert "seed=" in record["tag"]
            if "error" not in record:
                assert record["latency"] > 0
                assert 0.0 <= record["failure_probability"] <= 1.0
                assert record["mapping"]["kind"] == "interval-mapping"

    def test_workers_do_not_change_results(self, capsys):
        assert main([*self.BASE, "--json"]) == 0
        serial = capsys.readouterr().out
        assert main([*self.BASE, "--json", "--workers", "2"]) == 0
        parallel = capsys.readouterr().out

        def strip_elapsed(raw):
            return [
                {k: v for k, v in r.items() if k != "elapsed"}
                for r in json.loads(raw)
            ]

        assert strip_elapsed(serial) == strip_elapsed(parallel)

    def test_deterministic_given_seed(self, capsys):
        args = [
            "batch",
            "--solver",
            "local-search-min-fp",
            "--instances",
            "3",
            "--threshold",
            "90",
            "--seed",
            "3",
            "--json",
        ]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        for a, b in zip(first, second):
            assert a.get("latency") == b.get("latency")
            assert a.get("failure_probability") == b.get("failure_probability")
            assert a.get("mapping") == b.get("mapping")

    def test_table_output(self, capsys):
        assert main(self.BASE) == 0
        out = capsys.readouterr().out
        assert "failure-prob" in out
        assert "instance-0(seed=7)" in out

    def test_list_solvers(self, capsys):
        assert main(["batch", "--list-solvers"]) == 0
        out = capsys.readouterr().out
        assert "alg1" in out
        assert "exhaustive-min-fp" in out
        assert "heuristic" in out

    def test_list_solvers_json(self, capsys):
        assert main(["batch", "--list-solvers", "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        names = {r["name"] for r in records}
        assert {"alg1", "alg3", "greedy-min-fp", "anneal-min-latency"} <= names

    def test_missing_solver_is_an_error(self, capsys):
        assert main(["batch"]) == 2
        assert "--solver is required" in capsys.readouterr().out

    def test_all_failed_sets_exit_code(self, capsys):
        # an impossible latency bound fails every instance
        args = [
            "batch",
            "--solver",
            "greedy-min-fp",
            "--instances",
            "2",
            "--threshold",
            "1e-12",
            "--json",
        ]
        assert main(args) == 1
        records = json.loads(capsys.readouterr().out)
        assert all("error" in r for r in records)


class TestBatchStoreAndStreaming:
    def _base(self, *extra):
        return [
            "batch",
            "--solver",
            "greedy-min-fp",
            "--instances",
            "3",
            "--threshold",
            "80",
            "--seed",
            "7",
            *extra,
        ]

    def test_store_warm_run_is_all_cached(self, tmp_path, capsys):
        store = str(tmp_path / "results.json")
        assert main(self._base("--store", store, "--json")) == 0
        cold = json.loads(capsys.readouterr().out)
        assert not any(r["cached"] for r in cold)
        assert main(self._base("--store", store, "--json")) == 0
        warm = json.loads(capsys.readouterr().out)
        assert all(r["cached"] for r in warm)
        for a, b in zip(cold, warm):
            assert a.get("latency") == b.get("latency")
            assert a.get("mapping") == b.get("mapping")

    def test_store_stats_reported(self, tmp_path, capsys):
        store = str(tmp_path / "results.json")
        assert main(self._base("--store", store)) == 0
        err = capsys.readouterr().err
        assert "3 miss(es)" in err
        assert main(self._base("--store", store)) == 0
        err = capsys.readouterr().err
        assert "3 hit(s)" in err
        assert "100% hit rate" in err

    def test_sqlite_store_backend(self, tmp_path, capsys):
        store = str(tmp_path / "results.sqlite")
        assert main(self._base("--store", store)) == 0
        capsys.readouterr()
        assert main(self._base("--store", store, "--json")) == 0
        warm = json.loads(capsys.readouterr().out)
        assert all(r["cached"] for r in warm)

    def test_no_store_disables_store(self, tmp_path, capsys):
        store = str(tmp_path / "results.json")
        assert main(self._base("--store", store, "--no-store")) == 0
        out = capsys.readouterr()
        assert "store:" not in out.err
        assert not (tmp_path / "results.json").exists()

    def test_stream_prints_one_line_per_outcome(self, capsys):
        assert main(self._base("--stream")) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith("[")]
        assert len(lines) == 3
        assert "[0] instance-0(seed=7):" in lines[0]
        assert "latency=" in lines[0]

    def test_stream_marks_cached_outcomes(self, tmp_path, capsys):
        store = str(tmp_path / "results.json")
        assert main(self._base("--store", store, "--stream")) == 0
        capsys.readouterr()
        assert main(self._base("--store", store, "--stream")) == 0
        out = capsys.readouterr().out
        assert out.count("[cached]") == 3

    def test_policy_flags_accepted(self, capsys):
        args = self._base(
            "--retries", "1", "--timeout", "30", "--backoff", "0.1", "--json"
        )
        assert main(args) == 0
        records = json.loads(capsys.readouterr().out)
        assert all(r["attempts"] == 1 for r in records)

    def test_stream_json_rejected(self, capsys):
        assert main(self._base("--stream", "--json")) == 2
        assert "mutually exclusive" in capsys.readouterr().out

    def test_bad_policy_is_usage_error(self, capsys):
        assert main(self._base("--retries", "-1")) == 2
        assert "error:" in capsys.readouterr().out
        assert main(self._base("--timeout", "0")) == 2
        assert "error:" in capsys.readouterr().out

    def test_corrupt_store_recovers_with_quarantine(self, tmp_path, capsys):
        # a truncated/corrupt store file is quarantined and the run
        # proceeds on a fresh store (it is a cache, not data)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.warns(UserWarning, match="not valid JSON"):
            assert main(self._base("--store", str(bad))) == 0
        capsys.readouterr()
        assert (tmp_path / "bad.json.corrupt").read_text() == "{not json"

    def test_unknown_store_schema_is_usage_error(self, tmp_path, capsys):
        # an intact file with an unknown schema may belong to a newer
        # library version: refusing is correct, quarantining is not
        wrong_schema = tmp_path / "schema.json"
        wrong_schema.write_text('{"schema": 999, "records": {}}')
        assert main(self._base("--store", str(wrong_schema))) == 2
        assert "error:" in capsys.readouterr().out


class TestSweepCommand:
    def _spec(self, tmp_path, **overrides):
        spec = {
            "instances": [
                {
                    "scenario": "failure-mix",
                    "seed": 5,
                    "params": {"num_processors": 4, "stages": 3},
                }
            ],
            "solvers": ["greedy-min-fp"],
            "thresholds": [20.0, 30.0, 30.0, 45.0],
        }
        spec.update(overrides)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_table_output(self, tmp_path, capsys):
        assert main(["sweep", self._spec(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "failure-mix[seed=5] x greedy-min-fp" in out
        assert "3 unique point(s)" in out  # the duplicate threshold deduped
        assert "latency" in out

    def test_json_output_shape(self, tmp_path, capsys):
        assert main(["sweep", self._spec(tmp_path), "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 1
        cell = records[0]
        assert cell["unique_thresholds"] == 3
        assert len(cell["outcomes"]) == 4
        assert cell["frontier"]

    def test_warm_start_flag_overrides_spec(self, tmp_path, capsys):
        assert (
            main(
                [
                    "sweep",
                    self._spec(tmp_path),
                    "--warm-start",
                    "chain",
                    "--json",
                ]
            )
            == 0
        )
        records = json.loads(capsys.readouterr().out)
        assert records[0]["chained"] is True

    def test_store_round_trip_and_stats(self, tmp_path, capsys):
        spec = self._spec(tmp_path)
        store = tmp_path / "results.json"
        assert main(["sweep", spec, "--store", str(store)]) == 0
        err = capsys.readouterr().err
        assert "3 write(s)" in err
        assert main(["sweep", spec, "--store", str(store)]) == 0
        err = capsys.readouterr().err
        assert "3 hit(s)" in err
        assert "100% hit rate" in err

    def test_store_max_records_caps_the_store(self, tmp_path, capsys):
        spec = self._spec(tmp_path)
        store = tmp_path / "capped.json"
        assert (
            main(
                [
                    "sweep",
                    spec,
                    "--store",
                    str(store),
                    "--store-max-records",
                    "2",
                ]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "1 eviction(s)" in err
        from repro.engine.store import JSONStore

        reopened = JSONStore(store)
        assert len(reopened) == 2
        reopened.close()

    def test_workers_json_matches_serial(self, tmp_path, capsys):
        spec = self._spec(
            tmp_path,
            solvers=["greedy-min-fp", "local-search-min-fp"],
        )
        assert main(["sweep", spec, "--json", "--seed", "0"]) == 0
        serial = capsys.readouterr().out
        argv = ["sweep", spec, "--json", "--seed", "0", "--workers", "2"]
        assert main(argv) == 0
        assert capsys.readouterr().out == serial

    def test_shared_cache_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["sweep", self._spec(tmp_path), "--no-shared-cache"])
        assert info.value.code == 2
        assert "--no-shared-cache" in capsys.readouterr().err

    def test_list_scenarios(self, capsys):
        assert main(["sweep", "--list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "edge-hub-cloud" in out
        assert "failure-mix" in out

    def test_missing_spec_is_usage_error(self, capsys):
        assert main(["sweep"]) == 2
        assert "SPEC.json" in capsys.readouterr().out

    def test_unreadable_spec_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["sweep", str(bad)]) == 2
        assert "error:" in capsys.readouterr().out

    def test_bad_plan_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"instances": [], "solvers": []}))
        assert main(["sweep", str(path)]) == 2
        assert "error:" in capsys.readouterr().out

    def test_batch_store_max_records_flag(self, tmp_path, capsys):
        store = tmp_path / "batch.json"
        argv = [
            "batch",
            "--solver",
            "greedy-min-fp",
            "--instances",
            "4",
            "--threshold",
            "60.0",
            "--store",
            str(store),
            "--store-max-records",
            "2",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        from repro.engine.store import JSONStore

        reopened = JSONStore(store)
        assert len(reopened) == 2
        reopened.close()

    def test_non_object_spec_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "array.json"
        path.write_text(json.dumps([1, 2, 3]))
        assert main(["sweep", str(path)]) == 2
        assert "must be a JSON object" in capsys.readouterr().out

    def test_non_object_instance_entry_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "badinst.json"
        path.write_text(
            json.dumps({"instances": [7], "solvers": ["greedy-min-fp"]})
        )
        assert main(["sweep", str(path)]) == 2
        assert "error:" in capsys.readouterr().out

    def test_solver_crash_is_surfaced_and_sets_exit_code(
        self, tmp_path, capsys
    ):
        """A crashed solver must never read as merely infeasible: the
        table shows the error and the exit code is non-zero."""
        from tests.engine.synthetic import (
            always_crash_min_fp,
            register_synthetic,
        )

        spec = self._spec(tmp_path)
        with register_synthetic("crashy-cli-sweep", always_crash_min_fp):
            bad = json.loads((tmp_path / "spec.json").read_text())
            bad["solvers"] = ["greedy-min-fp", "crashy-cli-sweep"]
            path = tmp_path / "crash.json"
            path.write_text(json.dumps(bad))
            assert main(["sweep", str(path)]) == 1
            out = capsys.readouterr().out
            assert "crash" in out
            assert "synthetic permanent crash" in out
        assert spec  # the clean spec still exists (fixture sanity)


class TestReplayCommand:
    def test_verify_matches(self, capsys):
        argv = [
            "replay", "verify",
            "--solver", "local-search-min-fp",
            "--stages", "4", "--processors", "3", "--seed", "0",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "match" in out
        assert "zero divergences" in out

    def test_record_then_run_round_trip(self, tmp_path, capsys):
        store = str(tmp_path / "rec.json")
        argv = [
            "replay", "record",
            "--store", store,
            "--solver", "greedy-min-fp",
            "--seed", "3",
            "--json",
        ]
        assert main(argv) == 0
        key = json.loads(capsys.readouterr().out)["key"]
        assert main(["replay", "run", key, "--store", store]) == 0
        assert "match" in capsys.readouterr().out

    def test_diff_identical_recordings_strict(self, tmp_path, capsys):
        store = str(tmp_path / "rec.json")
        argv = [
            "replay", "record", "--store", store,
            "--solver", "anneal-min-fp", "--seed", "1", "--json",
        ]
        assert main(argv) == 0
        key = json.loads(capsys.readouterr().out)["key"]
        assert main(
            ["replay", "diff", key, key, "--store", store, "--strict"]
        ) == 0
        assert "match" in capsys.readouterr().out

    def test_diff_perturbed_recording_reports_first_divergence(
        self, tmp_path, capsys
    ):
        store_path = tmp_path / "rec.json"
        argv = [
            "replay", "record", "--store", str(store_path),
            "--solver", "local-search-min-fp", "--seed", "0", "--json",
        ]
        assert main(argv) == 0
        key = json.loads(capsys.readouterr().out)["key"]

        # perturb one mid-log event in a *copy* of the recording (the
        # store hands back the live record object, so mutating in place
        # would corrupt the original too)
        import copy

        from repro.engine import JSONStore

        with JSONStore(store_path) as store:
            record = copy.deepcopy(store.get(key))
            events = [
                e for e in record["events"]
                if e["kind"] not in ("begin", "cache_stats")
            ]
            index = len(events) // 2
            target = events[index]
            target["rng_draws"] = (target.get("rng_draws") or 0) + 999
            store.put(key + "-perturbed", record)

        assert main(
            ["replay", "diff", key, key + "-perturbed", "--store",
             str(store_path)]
        ) == 1
        out = capsys.readouterr().out
        assert f"first divergence at event {index}" in out
        assert "rng_draws" in out

    def test_run_unknown_key_is_usage_error(self, tmp_path, capsys):
        store = str(tmp_path / "rec.json")
        from repro.engine import JSONStore

        JSONStore(store).close()
        assert main(["replay", "run", "nope", "--store", store]) == 2
        assert "no recording" in capsys.readouterr().out

    def test_missing_store_is_usage_error(self, capsys):
        assert main(["replay", "record"]) == 2
        assert "requires --store" in capsys.readouterr().out

    def test_wrong_key_count_is_usage_error(self, capsys):
        assert main(["replay", "diff", "onlyone", "--store", "x.json"]) == 2
        assert "key argument" in capsys.readouterr().out

    def test_non_recordable_solver_is_usage_error(self, capsys):
        argv = [
            "replay", "verify", "--solver", "alg1",
            "--platform", "fully-homogeneous",
        ]
        assert main(argv) == 2
        assert "does not support run recording" in capsys.readouterr().out

    def test_use_bulk_off_verify(self, capsys):
        argv = [
            "replay", "verify",
            "--solver", "exhaustive-min-fp",
            "--use-bulk", "off",
        ]
        assert main(argv) == 0
        assert "match" in capsys.readouterr().out

    @pytest.mark.parametrize("use_bulk", ["on", "off"])
    @pytest.mark.parametrize(
        "solver",
        [
            "greedy-min-fp",
            "anneal-min-fp",
            "local-search-min-fp",
            "local-search-min-latency",
            "single-interval-min-fp",
            "single-interval-min-latency",
        ],
    )
    def test_use_bulk_for_solver_without_bulk_path(
        self, capsys, tmp_path, solver, use_bulk
    ):
        store = tmp_path / "rec.json"
        for action in ("verify", "record"):
            argv = [
                "replay", action, "--solver", solver,
                "--use-bulk", use_bulk, "--store", str(store),
            ]
            assert main(argv) == 2
            out = capsys.readouterr().out
            assert f"'{solver}'" in out and "--use-bulk" in out
        assert main(["replay", "verify", "--solver", solver]) == 0
