"""Replay equivalence: record → replay → zero divergences, and the
first-divergence diagnostics when the logs genuinely disagree."""

import copy
import dataclasses

import pytest

from repro.api import diff_runs, record_run, replay_run
from repro.engine import DEFAULT_IGNORE, MemoryStore, ReplayStatus
from repro.exceptions import ReproError

from tests.helpers import make_instance

#: one evaluation path each: no heuristic has a ``use_bulk`` option
HEURISTICS = [
    "single-interval-min-fp",
    "greedy-min-fp",
    "local-search-min-fp",
    "anneal-min-fp",
]


@pytest.fixture
def instance():
    return make_instance("comm-homogeneous", 4, 3, 0)


def _record(solver, instance, *, use_bulk=None, threshold=40.0, **extra):
    if use_bulk:
        pytest.importorskip("numpy", exc_type=ImportError)
    if use_bulk is not None:
        extra["use_bulk"] = use_bulk
    app, plat = instance
    return record_run(solver, app, plat, threshold, **extra)


class TestRoundTrip:
    @pytest.mark.parametrize("solver", HEURISTICS)
    def test_heuristics_replay_without_divergence(self, solver, instance):
        """The deterministic core: same query, same trajectory."""
        _, recording = _record(solver, instance)
        report = replay_run(recording, strict=True)
        assert report.ok
        assert report.status is ReplayStatus.MATCH
        assert report.events_compared == len(recording.events)
        assert "zero divergences" in report.summary()

    def test_replay_resolves_store_keys(self, instance):
        app, plat = instance
        store = MemoryStore()
        _, recording = record_run(
            "greedy-min-fp", app, plat, 40.0, store=store
        )
        report = replay_run(recording.key(), store)
        assert report.ok
        with pytest.raises(ReproError, match="store"):
            replay_run(recording.key())
        with pytest.raises(ReproError, match="no recording"):
            replay_run("0" * 64, store)

    def test_infeasible_recording_replays_clean(self, instance):
        app, plat = instance
        _, recording = record_run("greedy-min-fp", app, plat, 1e-12)
        assert recording.result is None
        assert replay_run(recording, strict=True).ok


class TestScalarVsBulk:
    def test_exhaustive_paths_agree_on_the_result(self):
        """The exhaustive vocabularies differ by design (incumbent vs
        block_winner), so cross-path comparison is result-only."""
        instance = make_instance("comm-homogeneous", 4, 2, 0)
        _, scalar = _record("exhaustive-min-fp", instance, use_bulk=False)
        _, bulk = _record("exhaustive-min-fp", instance, use_bulk=True)
        assert any(e["kind"] == "incumbent" for e in scalar.events)
        assert not any(e["kind"] == "incumbent" for e in bulk.events)
        assert any(e["kind"] == "block_winner" for e in bulk.events)
        # extras differ (the bulk path stamps bulk=True), the optimum
        # itself must not
        a, b = scalar.solver_result(), bulk.solver_result()
        assert (a.mapping, a.latency, a.failure_probability) == (
            b.mapping,
            b.latency,
            b.failure_probability,
        )
        # same-path replays remain strictly deterministic
        assert replay_run(scalar, strict=True).ok
        assert replay_run(bulk, strict=True).ok


class TestDivergenceDiagnostics:
    def _compared(self, recording):
        return [
            e
            for e in recording.events
            if e["kind"] not in DEFAULT_IGNORE
        ]

    def test_perturbed_event_diverges_at_exact_index(self, instance):
        _, recording = _record("local-search-min-fp", instance, seed=1)
        events = copy.deepcopy(list(recording.events))
        compared = [
            i
            for i, e in enumerate(events)
            if e["kind"] not in DEFAULT_IGNORE
        ]
        target = compared[len(compared) // 2]
        events[target]["rng_draws"] += 999

        report = diff_runs(recording, events)
        assert report.status is ReplayStatus.DIVERGED
        divergence = report.divergence
        # index counts *compared* events, so it is the position of the
        # perturbed event within the filtered log
        assert divergence.index == compared.index(target)
        assert divergence.kind == events[target]["kind"]
        assert [d.field for d in divergence.field_diffs] == ["rng_draws"]
        assert (
            divergence.field_diffs[0].got
            == divergence.field_diffs[0].expected + 999
        )
        assert f"first divergence at event {divergence.index}" in (
            report.summary()
        )
        assert divergence.window_expected  # context travels with it
        assert events[target] in divergence.window_got

    def test_truncated_log_reports_truncation(self, instance):
        _, recording = _record("greedy-min-fp", instance)
        compared = self._compared(recording)
        report = diff_runs(recording, compared[:-1])
        assert report.status is ReplayStatus.TRUNCATED
        assert report.divergence.index == len(compared) - 1
        assert report.divergence.got is None
        assert "truncated" in report.summary()

    def test_empty_vs_empty_matches(self):
        report = diff_runs([], [])
        assert report.ok
        assert report.events_compared == 0

    def test_stale_solver_version_short_circuits(self, instance):
        _, recording = _record("greedy-min-fp", instance)
        stale = dataclasses.replace(
            recording, solver_version=recording.solver_version + 1
        )
        report = replay_run(stale)
        assert report.status is ReplayStatus.STALE
        assert not report.ok
        assert report.events_compared == 0
        assert "stale" in report.summary()
