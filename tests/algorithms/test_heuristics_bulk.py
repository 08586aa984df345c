"""Scalar <-> bulk equivalence for the heuristics' candidate pools.

The contract: with ``use_bulk`` on, every heuristic with a bulk path
must take *identical decisions* to the scalar path — same accepted-move
sequence (local search), same grid winner (single-interval) — because
bulk scores only prefilter and all decisions happen on scalar-exact
values.  These tests assert that bit-for-bit, including the
m > MASK_TABLE_LIMIT shapes where the bulk evaluator falls back from
per-bitmask tables to the boolean bit-matrix kernel.  Greedy and
annealing have no bulk path: they score trials from cached interval
terms, tested against their reference loops in ``test_greedy.py`` and
``test_annealing.py``; the row form of the neighbourhood is tested
against the indexed one in ``test_neighborhood.py``.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy", exc_type=ImportError)

from repro.algorithms.heuristics import (
    local_search_minimize_fp,
    local_search_minimize_latency,
    single_interval_candidates,
    single_interval_mappings,
    single_interval_minimize_fp,
    single_interval_minimize_latency,
    single_interval_replica_sets,
)
from repro.core import IntervalMapping, Platform, latency
from repro.core import metrics_kernels
from repro.core.metrics_bulk import MASK_TABLE_LIMIT, BlockBuilder
from repro.exceptions import InfeasibleProblemError, SolverError

from tests.helpers import make_instance
from tests.strategies import app_platform_mapping, comm_homogeneous_platforms

KINDS = ["comm-homogeneous", "fully-heterogeneous", "fully-homogeneous-failhet"]


def _loose_latency_threshold(app, plat, factor=2.0):
    everything = IntervalMapping.single_interval(
        app.num_stages, set(range(1, plat.size + 1))
    )
    return factor * latency(everything, app, plat)


def _wide_platform(m=MASK_TABLE_LIMIT + 1, seed=0):
    """A platform wide enough to force the bit-matrix bulk fallback."""
    rng = random.Random(seed)
    return Platform.communication_homogeneous(
        [rng.uniform(1.0, 8.0) for _ in range(m)],
        bandwidth=rng.uniform(2.0, 8.0),
        failure_probabilities=[rng.uniform(0.05, 0.6) for _ in range(m)],
    )


# ----------------------------------------------------------------------
# block building
# ----------------------------------------------------------------------
class TestBlockBuilder:
    def test_append_widens_and_preserves_order(self):
        builder = BlockBuilder(num_stages=6, num_processors=2, capacity=1)
        builder.append((6,), (0b01,))
        builder.append((2, 6), (0b01, 0b10))  # wider than initial width
        builder.append((6,), (0b11,))
        block = builder.build()
        assert len(block) == 3
        decoded = list(block.mappings())
        assert decoded[0] == IntervalMapping.single_interval(6, {1})
        assert decoded[1] == IntervalMapping([(1, 2), (3, 6)], [{1}, {2}])
        assert decoded[2] == IntervalMapping.single_interval(6, {1, 2})

    def test_build_snapshots(self):
        builder = BlockBuilder(num_stages=3, num_processors=2)
        builder.append((3,), (0b01,))
        block = builder.build()
        builder.append((3,), (0b10,))
        assert len(block) == 1  # later appends do not alias the block
        assert len(builder.build()) == 2

    def test_mismatched_row_rejected(self):
        builder = BlockBuilder(num_stages=3, num_processors=2)
        with pytest.raises(SolverError):
            builder.append((3,), (0b01, 0b10))


# ----------------------------------------------------------------------
# local search trajectories
# ----------------------------------------------------------------------
def _run_both(fn, app, plat, threshold, seed, **opts):
    trace_scalar: list = []
    trace_bulk: list = []
    try:
        scalar = fn(
            app, plat, threshold,
            seed=seed, use_bulk=False, trace=trace_scalar, **opts,
        )
        infeasible = False
    except InfeasibleProblemError:
        scalar, infeasible = None, True
    if infeasible:
        with pytest.raises(InfeasibleProblemError):
            fn(
                app, plat, threshold,
                seed=seed, use_bulk=True, trace=trace_bulk, **opts,
            )
        return None, None, trace_scalar, trace_bulk
    bulk = fn(
        app, plat, threshold,
        seed=seed, use_bulk=True, trace=trace_bulk, **opts,
    )
    return scalar, bulk, trace_scalar, trace_bulk


def _assert_identical(scalar, bulk):
    assert scalar.mapping == bulk.mapping
    assert scalar.latency == bulk.latency
    assert scalar.failure_probability == bulk.failure_probability
    assert scalar.extras == bulk.extras


class TestLocalSearchEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        app_platform_mapping(
            platform_strategy=comm_homogeneous_platforms(
                min_processors=2, max_processors=6
            )
        ),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_min_fp_trajectories_identical(self, triple, seed):
        app, plat, _ = triple
        threshold = _loose_latency_threshold(app, plat)
        scalar, bulk, t_s, t_b = _run_both(
            local_search_minimize_fp, app, plat, threshold, seed,
            restarts=3, max_steps=25,
        )
        assert t_s == t_b  # same accepted-move sequence
        if scalar is not None:
            _assert_identical(scalar, bulk)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", range(3))
    def test_min_latency_trajectories_identical(self, kind, seed):
        app, plat = make_instance(kind, n=6, m=5, seed=seed)
        scalar, bulk, t_s, t_b = _run_both(
            local_search_minimize_latency, app, plat, 0.9, seed,
            restarts=4, max_steps=40,
        )
        assert t_s == t_b
        if scalar is not None:
            _assert_identical(scalar, bulk)

    def test_wide_platform_fallback_shapes(self):
        """m > MASK_TABLE_LIMIT exercises the bit-matrix bulk kernel."""
        plat = _wide_platform()
        app, _ = make_instance("comm-homogeneous", n=6, m=4, seed=1)
        threshold = _loose_latency_threshold(app, plat)
        scalar, bulk, t_s, t_b = _run_both(
            local_search_minimize_fp, app, plat, threshold, 0,
            restarts=2, max_steps=12,
        )
        assert t_s == t_b and t_s  # the walk actually moved
        _assert_identical(scalar, bulk)


# ----------------------------------------------------------------------
# single-interval selection
# ----------------------------------------------------------------------
class TestSingleIntervalEquivalence:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", range(3))
    def test_both_queries_identical(self, kind, seed):
        app, plat = make_instance(kind, n=5, m=6, seed=seed)
        threshold = _loose_latency_threshold(app, plat, factor=1.2)
        _assert_identical(
            single_interval_minimize_fp(app, plat, threshold, use_bulk=False),
            single_interval_minimize_fp(app, plat, threshold, use_bulk=True),
        )
        _assert_identical(
            single_interval_minimize_latency(app, plat, 0.9, use_bulk=False),
            single_interval_minimize_latency(app, plat, 0.9, use_bulk=True),
        )

    def test_replica_set_pool_matches_candidates(self):
        app, plat = make_instance("comm-homogeneous", n=5, m=6, seed=0)
        candidates = single_interval_candidates(app, plat)
        grid = single_interval_replica_sets(plat)
        assert len(candidates) == len(grid)
        for cand, (procs, k, sigma) in zip(candidates, grid):
            assert cand.mapping.allocations[0] == procs
            assert cand.extras == {"k": k, "speed_floor": sigma}
        assert single_interval_mappings(app, plat) == [
            c.mapping for c in candidates
        ]

    def test_infeasible_matches(self):
        app, plat = make_instance("comm-homogeneous", n=5, m=4, seed=0)
        for use_bulk in (False, True):
            with pytest.raises(InfeasibleProblemError):
                single_interval_minimize_fp(
                    app, plat, 1e-9, use_bulk=use_bulk
                )


# ----------------------------------------------------------------------
# recorded-trajectory equivalence (record/replay as the referee)
# ----------------------------------------------------------------------
class TestRecordedTrajectoryEquivalence:
    """The same contract, checked through the event recorder: the
    scalar and bulk runs of every heuristic must produce diff-clean
    recordings, not just equal final results."""

    @pytest.mark.parametrize(
        ("solver", "opts"),
        [
            ("single-interval-min-fp", {}),
            ("local-search-min-fp", {"seed": 11}),
        ],
    )
    def test_scalar_and_bulk_recordings_diff_clean(self, solver, opts):
        from repro.api import diff_runs, record_run

        app, plat = make_instance("comm-homogeneous", n=5, m=4, seed=2)
        threshold = _loose_latency_threshold(app, plat)
        _, scalar = record_run(
            solver, app, plat, threshold, use_bulk=False, **opts
        )
        _, bulk = record_run(
            solver, app, plat, threshold, use_bulk=True, **opts
        )
        report = diff_runs(scalar, bulk)
        assert report.ok, report.summary()
        assert report.events_compared > 0


# ----------------------------------------------------------------------
# knob semantics
# ----------------------------------------------------------------------
class TestUseBulkKnob:
    def test_true_without_numpy_raises(self, monkeypatch):
        import repro.core.metrics_bulk as mb

        monkeypatch.setattr(mb, "HAS_NUMPY", False)
        app, plat = make_instance("comm-homogeneous", n=4, m=3, seed=0)
        threshold = _loose_latency_threshold(app, plat)
        for fn in (local_search_minimize_fp, single_interval_minimize_fp):
            with pytest.raises(SolverError, match="requires numpy"):
                fn(app, plat, threshold, use_bulk=True)

    def test_auto_resolves_off_without_numpy(self, monkeypatch):
        import repro.core.metrics_bulk as mb

        monkeypatch.setattr(mb, "HAS_NUMPY", False)
        app, plat = make_instance("comm-homogeneous", n=4, m=3, seed=0)
        threshold = _loose_latency_threshold(app, plat)
        # use_bulk=None silently takes the scalar path
        result = single_interval_minimize_fp(
            app, plat, threshold, use_bulk=None
        )
        assert result.mapping == single_interval_minimize_fp(
            app, plat, threshold, use_bulk=False
        ).mapping


class TestBackendKnob:
    """The ``bulk_backend`` knob resolves like ``use_bulk`` one level down."""

    def test_explicit_numpy_matches_auto_trajectories(self):
        # with numba installed the default resolves to the jit backend,
        # so this doubles as the jit <-> numpy trajectory-identity check
        app, plat = make_instance("comm-homogeneous", n=5, m=4, seed=1)
        threshold = _loose_latency_threshold(app, plat)
        t_auto: list = []
        t_numpy: list = []
        auto = local_search_minimize_fp(
            app, plat, threshold, seed=7, use_bulk=True, trace=t_auto
        )
        explicit = local_search_minimize_fp(
            app, plat, threshold,
            seed=7, use_bulk=True, bulk_backend="numpy", trace=t_numpy,
        )
        assert t_auto == t_numpy
        _assert_identical(auto, explicit)

    def test_jit_without_numba_raises(self, monkeypatch):
        import repro.core.metrics_bulk as mb

        monkeypatch.setattr(mb, "HAS_NUMBA", False)
        app, plat = make_instance("comm-homogeneous", n=4, m=3, seed=0)
        threshold = _loose_latency_threshold(app, plat)
        for fn in (local_search_minimize_fp, single_interval_minimize_fp):
            with pytest.raises(SolverError, match="requires numba"):
                fn(app, plat, threshold, use_bulk=True, bulk_backend="jit")

    def test_unknown_backend_rejected(self):
        app, plat = make_instance("comm-homogeneous", n=4, m=3, seed=0)
        threshold = _loose_latency_threshold(app, plat)
        with pytest.raises(SolverError, match="unknown bulk backend"):
            single_interval_minimize_fp(
                app, plat, threshold, use_bulk=True, bulk_backend="cuda"
            )


@pytest.mark.skipif(
    not metrics_kernels.HAS_NUMBA, reason="numba not installed"
)
class TestJitBackendTrajectories:
    """Scalar <-> jit-backed bulk identity, mirroring the numpy legs."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_local_search_trajectories_identical(self, kind):
        app, plat = make_instance(kind, n=6, m=5, seed=4)
        threshold = _loose_latency_threshold(app, plat)
        scalar, bulk, t_s, t_b = _run_both(
            local_search_minimize_fp, app, plat, threshold, 4,
            bulk_backend="jit", restarts=3, max_steps=30,
        )
        assert t_s == t_b
        if scalar is not None:
            _assert_identical(scalar, bulk)

    def test_wide_platform_fallback_shapes(self):
        plat = _wide_platform()
        app, _ = make_instance("comm-homogeneous", n=6, m=4, seed=1)
        threshold = _loose_latency_threshold(app, plat)
        scalar, bulk, t_s, t_b = _run_both(
            local_search_minimize_fp, app, plat, threshold, 0,
            bulk_backend="jit", restarts=2, max_steps=12,
        )
        assert t_s == t_b and t_s
        _assert_identical(scalar, bulk)

    def test_single_interval_winners_identical(self):
        app, plat = make_instance("fully-heterogeneous", n=5, m=4, seed=3)
        threshold = _loose_latency_threshold(app, plat)
        scalar = single_interval_minimize_fp(
            app, plat, threshold, use_bulk=False
        )
        jit = single_interval_minimize_fp(
            app, plat, threshold, use_bulk=True, bulk_backend="jit"
        )
        _assert_identical(scalar, jit)
