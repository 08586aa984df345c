"""Scalar ↔ vectorized equivalence of the bulk evaluation path.

The :class:`~repro.core.metrics_bulk.BulkEvaluator` must agree with the
scalar :func:`~repro.core.metrics.evaluate` /
:class:`~repro.core.metrics.EvaluationCache` on every mapping, within
the documented :data:`~repro.core.metrics_bulk.BULK_RELATIVE_TOLERANCE`
— on random instances of every platform class, and on the degenerate
shapes (single interval, every stage its own interval) where padding
bugs would hide.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import (
    BULK_RELATIVE_TOLERANCE,
    BulkEvaluator,
    EvaluationCache,
    IntervalMapping,
    MappingBlock,
    PipelineApplication,
    Platform,
    evaluate,
    nondominated_mask,
    pareto_front,
)
from repro.core.enumeration import (
    allocation_mask_rows,
    allocations_for_partition,
    enumerate_interval_mappings,
    iter_mapping_blocks,
)
from repro.core.metrics_bulk import BlockBuilder
from repro.core.pareto import BiCriteriaPoint
from repro.exceptions import SolverError

from tests.helpers import make_instance
from tests.strategies import (
    applications,
    comm_homogeneous_platforms,
    fully_heterogeneous_platforms,
    interval_mappings,
    platforms,
)

np = pytest.importorskip("numpy", exc_type=ImportError)


def assert_bulk_matches_scalar(app, plat, mappings, *, one_port=True):
    """Encode ``mappings`` and compare both objectives per row."""
    block = MappingBlock.from_mappings(mappings, app.num_stages, plat.size)
    evaluator = BulkEvaluator(app, plat, one_port=one_port)
    lats, fps = evaluator.evaluate_block(block)
    cache = EvaluationCache(app, plat, one_port=one_port)
    for i, mapping in enumerate(mappings):
        scalar = cache.evaluate(mapping)
        assert math.isclose(
            lats[i], scalar.latency, rel_tol=BULK_RELATIVE_TOLERANCE
        ), (mapping, lats[i], scalar.latency)
        assert math.isclose(
            fps[i],
            scalar.failure_probability,
            rel_tol=BULK_RELATIVE_TOLERANCE,
            abs_tol=1e-300,
        ), (mapping, fps[i], scalar.failure_probability)


@st.composite
def app_platform_mappings(draw, platform_strategy=None, max_mappings=8):
    """A consistent (application, platform, [mappings]) triple."""
    app = draw(applications(max_stages=4))
    if platform_strategy is None:
        platform_strategy = platforms(min_processors=1, max_processors=5)
    plat = draw(platform_strategy)
    count = draw(st.integers(min_value=1, max_value=max_mappings))
    mappings = [
        draw(interval_mappings(app.num_stages, plat.size))
        for _ in range(count)
    ]
    return app, plat, mappings


class TestBulkMatchesScalar:
    @given(app_platform_mappings())
    @settings(max_examples=120, deadline=None)
    def test_any_platform_class(self, triple):
        app, plat, mappings = triple
        assert_bulk_matches_scalar(app, plat, mappings)

    @given(
        app_platform_mappings(
            platform_strategy=comm_homogeneous_platforms(
                min_processors=1, max_processors=6
            )
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_uniform_links(self, triple):
        app, plat, mappings = triple
        assert_bulk_matches_scalar(app, plat, mappings)

    @given(
        app_platform_mappings(
            platform_strategy=fully_heterogeneous_platforms(
                min_processors=1, max_processors=5
            )
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_heterogeneous_links(self, triple):
        app, plat, mappings = triple
        assert_bulk_matches_scalar(app, plat, mappings)

    @given(app_platform_mappings())
    @settings(max_examples=40, deadline=None)
    def test_multi_port_ablation(self, triple):
        app, plat, mappings = triple
        assert_bulk_matches_scalar(app, plat, mappings, one_port=False)

    @pytest.mark.parametrize(
        "kind", ["comm-homogeneous", "fully-heterogeneous"]
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_whole_space_small_instances(self, kind, seed):
        app, plat = make_instance(kind, n=4, m=4, seed=seed)
        mappings = list(enumerate_interval_mappings(4, 4))
        assert_bulk_matches_scalar(app, plat, mappings)


class TestEdgeShapes:
    """Padding-sensitive degenerate shapes, checked explicitly."""

    @pytest.mark.parametrize(
        "kind", ["comm-homogeneous", "fully-heterogeneous"]
    )
    def test_single_interval_full_replication(self, kind):
        app, plat = make_instance(kind, n=5, m=4, seed=7)
        mappings = [
            IntervalMapping.single_interval(5, {1}),
            IntervalMapping.single_interval(5, {3}),
            IntervalMapping.single_interval(5, {1, 2, 3, 4}),
        ]
        assert_bulk_matches_scalar(app, plat, mappings)

    @pytest.mark.parametrize(
        "kind", ["comm-homogeneous", "fully-heterogeneous"]
    )
    def test_every_stage_its_own_interval(self, kind):
        app, plat = make_instance(kind, n=4, m=4, seed=7)
        mappings = [
            IntervalMapping.one_to_one([1, 2, 3, 4]),
            IntervalMapping.one_to_one([4, 3, 2, 1]),
        ]
        assert_bulk_matches_scalar(app, plat, mappings)

    def test_single_stage_pipeline(self):
        app = PipelineApplication(works=(3.0,), volumes=(1.0, 2.0))
        plat = Platform.communication_homogeneous(
            [1.0, 2.0], failure_probabilities=[0.2, 0.5]
        )
        mappings = list(enumerate_interval_mappings(1, 2))
        assert_bulk_matches_scalar(app, plat, mappings)

    def test_certain_failure_maps_to_fp_one(self):
        app = PipelineApplication(works=(1.0, 1.0), volumes=(1.0, 1.0, 1.0))
        plat = Platform.communication_homogeneous(
            [1.0, 1.0], failure_probabilities=[1.0, 0.5]
        )
        mappings = list(enumerate_interval_mappings(2, 2))
        assert_bulk_matches_scalar(app, plat, mappings)

    def test_reference_instances(self, fig34, fig5):
        for inst in (fig34, fig5):
            app, plat = inst.application, inst.platform
            mappings = list(
                enumerate_interval_mappings(app.num_stages, plat.size)
            )[:2000]
            assert_bulk_matches_scalar(app, plat, mappings)


class TestMappingBlock:
    def test_round_trip(self):
        app, plat = make_instance("comm-homogeneous", n=5, m=3, seed=0)
        mappings = list(enumerate_interval_mappings(5, 3))
        block = MappingBlock.from_mappings(mappings, 5, 3)
        assert len(block) == len(mappings)
        assert list(block.mappings()) == mappings

    def test_instance_mismatch_rejected(self):
        app, plat = make_instance("comm-homogeneous", n=3, m=3, seed=0)
        other_app, other_plat = make_instance(
            "comm-homogeneous", n=4, m=2, seed=0
        )
        block = MappingBlock.from_mappings(
            list(enumerate_interval_mappings(4, 2)), 4, 2
        )
        evaluator = BulkEvaluator(app, plat)
        with pytest.raises(SolverError):
            evaluator.latencies(block)


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


class TestIterMappingBlocks:
    @pytest.mark.parametrize("n,m", [(1, 1), (3, 2), (4, 4), (5, 3), (7, 4)])
    def test_matches_scalar_enumeration_in_order(self, n, m):
        app, plat = make_instance("comm-homogeneous", n=n, m=m, seed=1)
        scalar = list(enumerate_interval_mappings(n, m))
        blocks = list(iter_mapping_blocks(app, plat, block_size=64))
        decoded = [mp for block in blocks for mp in block.mappings()]
        assert decoded == scalar
        assert all(len(block) <= 64 for block in blocks)

    def test_max_replication_parity(self):
        app, plat = make_instance("comm-homogeneous", n=4, m=4, seed=2)
        scalar = list(
            enumerate_interval_mappings(4, 4, max_replication=2)
        )
        decoded = [
            mp
            for block in iter_mapping_blocks(
                app, plat, block_size=50, max_replication=2
            )
            for mp in block.mappings()
        ]
        assert decoded == scalar

    def test_allocation_mask_rows_match_frozenset_enumeration(self):
        for p, m in [(1, 3), (2, 4), (3, 4), (4, 4)]:
            masks = allocation_mask_rows(p, m)
            reference = [
                tuple(
                    sum(1 << (u - 1) for u in alloc) for alloc in allocs
                )
                for allocs in allocations_for_partition(
                    p, range(1, m + 1)
                )
            ]
            assert masks == reference

    def test_invalid_block_size_rejected(self):
        app, plat = make_instance("comm-homogeneous", n=3, m=2, seed=0)
        with pytest.raises(ValueError):
            next(iter_mapping_blocks(app, plat, block_size=0))


class TestNondominatedMask:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_prefilter_preserves_pareto_front(self, pairs):
        lats = np.array([p[0] for p in pairs])
        fps = np.array([p[1] for p in pairs])
        keep = nondominated_mask(lats, fps)
        points = [
            BiCriteriaPoint(lat, fp, payload=i)
            for i, (lat, fp) in enumerate(pairs)
        ]
        survivors = [p for p, k in zip(points, keep) if k]
        full_front = pareto_front(points)
        filtered_front = pareto_front(survivors)
        assert [
            (p.latency, p.failure_probability, p.payload)
            for p in filtered_front
        ] == [
            (p.latency, p.failure_probability, p.payload)
            for p in full_front
        ]

    def test_duplicates_all_kept(self):
        lats = np.array([1.0, 1.0, 2.0])
        fps = np.array([0.5, 0.5, 0.1])
        assert nondominated_mask(lats, fps).tolist() == [True, True, True]

    def test_empty_input(self):
        assert nondominated_mask(np.zeros(0), np.zeros(0)).tolist() == []


class TestShardedEvaluation:
    """Threaded row-sharding must be bit-identical and size-gated."""

    def _big_block(self, kind, n=13, m=4, seed=3):
        app, plat = make_instance(kind, n, m, seed)
        mappings = list(enumerate_interval_mappings(n, m))
        assert len(mappings) > 4 * 2048  # really engages the fan-out
        block = MappingBlock.from_mappings(mappings, n, m)
        return app, plat, block

    @pytest.mark.parametrize(
        "kind", ["comm-homogeneous", "fully-heterogeneous"]
    )
    def test_shards_bit_identical(self, kind):
        app, plat, block = self._big_block(kind)
        single = BulkEvaluator(app, plat)
        sharded = BulkEvaluator(app, plat, shards=4)
        assert np.array_equal(
            single.latencies(block), sharded.latencies(block)
        )
        assert np.array_equal(
            single.failure_probabilities(block),
            sharded.failure_probabilities(block),
        )
        lats, fps = sharded.evaluate_block(block)
        ref_lats, ref_fps = single.evaluate_block(block)
        assert np.array_equal(lats, ref_lats)
        assert np.array_equal(fps, ref_fps)

    def test_small_blocks_never_spawn_threads(self, monkeypatch):
        from repro.core import metrics_bulk

        app, plat = make_instance("comm-homogeneous", 4, 3, 5)
        mappings = list(enumerate_interval_mappings(4, 3))
        block = MappingBlock.from_mappings(mappings, 4, 3)
        assert len(block) < metrics_bulk.SHARD_MIN_ROWS

        def no_threads(*args, **kwargs):  # pragma: no cover
            raise AssertionError("thread pool created for a small block")

        monkeypatch.setattr(
            metrics_bulk, "ThreadPoolExecutor", no_threads
        )
        sharded = BulkEvaluator(app, plat, shards=8)
        reference = BulkEvaluator(app, plat)
        assert np.array_equal(
            sharded.latencies(block), reference.latencies(block)
        )

    def test_invalid_shards_rejected(self):
        app, plat = make_instance("comm-homogeneous", 3, 3, 1)
        with pytest.raises(SolverError, match="shards"):
            BulkEvaluator(app, plat, shards=0)

    def test_exhaustive_solver_with_shards_identical(self):
        from repro.algorithms.bicriteria.exhaustive import (
            exhaustive_minimize_fp,
        )

        app, plat = make_instance("comm-homogeneous", 4, 4, 7)
        plain = exhaustive_minimize_fp(app, plat, 40.0)
        sharded = exhaustive_minimize_fp(app, plat, 40.0, bulk_shards=4)
        assert sharded.latency == plain.latency
        assert sharded.failure_probability == plain.failure_probability
        assert sharded.mapping == plain.mapping

    def test_shard_min_rows_lowers_the_gate(self, monkeypatch):
        """A custom ``shard_min_rows`` engages the fan-out on small blocks."""
        from repro.core import metrics_bulk

        app, plat = make_instance("fully-heterogeneous", 4, 3, 5)
        mappings = list(enumerate_interval_mappings(4, 3))
        block = MappingBlock.from_mappings(mappings, 4, 3)
        assert len(block) < metrics_bulk.SHARD_MIN_ROWS

        created = []
        real_executor = metrics_bulk.ThreadPoolExecutor

        def record(*args, **kwargs):
            executor = real_executor(*args, **kwargs)
            created.append(executor)
            return executor

        monkeypatch.setattr(metrics_bulk, "ThreadPoolExecutor", record)
        reference = BulkEvaluator(app, plat)
        with BulkEvaluator(app, plat, shards=4, shard_min_rows=2) as sharded:
            assert sharded.shard_min_rows == 2
            assert np.array_equal(
                sharded.latencies(block), reference.latencies(block)
            )
            assert np.array_equal(
                sharded.failure_probabilities(block),
                reference.failure_probabilities(block),
            )
        assert len(created) == 1

    def test_invalid_shard_min_rows_rejected(self):
        app, plat = make_instance("comm-homogeneous", 3, 3, 1)
        with pytest.raises(SolverError, match="shard_min_rows"):
            BulkEvaluator(app, plat, shard_min_rows=0)


class TestPersistentExecutor:
    """The shard pool is created lazily, reused, and closed exactly once."""

    def _instrument(self, monkeypatch):
        from repro.core import metrics_bulk

        created = []
        real_executor = metrics_bulk.ThreadPoolExecutor

        class Recording(real_executor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.shutdown_calls = 0
                created.append(self)

            def shutdown(self, *args, **kwargs):
                self.shutdown_calls += 1
                super().shutdown(*args, **kwargs)

        monkeypatch.setattr(metrics_bulk, "ThreadPoolExecutor", Recording)
        return created

    def _sharded_evaluator(self):
        app, plat = make_instance("comm-homogeneous", 4, 3, 2)
        mappings = list(enumerate_interval_mappings(4, 3))
        block = MappingBlock.from_mappings(mappings, 4, 3)
        return BulkEvaluator(app, plat, shards=2, shard_min_rows=1), block

    def test_lazy_creation_and_reuse(self, monkeypatch):
        created = self._instrument(monkeypatch)
        evaluator, block = self._sharded_evaluator()
        assert created == []  # construction alone spawns nothing
        evaluator.latencies(block)
        evaluator.failure_probabilities(block)
        evaluator.evaluate_block(block)
        assert len(created) == 1  # one pool serves every later block
        evaluator.close()
        assert created[0].shutdown_calls == 1

    def test_close_is_idempotent_and_reopens(self, monkeypatch):
        created = self._instrument(monkeypatch)
        evaluator, block = self._sharded_evaluator()
        evaluator.latencies(block)
        evaluator.close()
        evaluator.close()
        assert created[0].shutdown_calls == 1
        # evaluation after close simply builds a fresh pool
        evaluator.latencies(block)
        assert len(created) == 2
        evaluator.close()

    def test_context_manager_closes(self, monkeypatch):
        created = self._instrument(monkeypatch)
        evaluator, block = self._sharded_evaluator()
        with evaluator as ev:
            assert ev is evaluator
            ev.latencies(block)
        assert len(created) == 1
        assert created[0].shutdown_calls == 1


class TestHeterogeneousSendRestructure:
    """The keyed send table is bit-identical to the 4-D formulation.

    The former heterogeneous path materialised a ``(B, width, m, m)``
    ``send_uv`` array; the restructure reduces once per unique
    ``(end, next mask)`` pair and scatters back.  Each output element is
    the same numpy reduction over the same contiguous length-``m``
    values, so the results must match exactly — not just within
    tolerance.
    """

    @staticmethod
    def _legacy_latencies(ev, block):
        """The pre-restructure formulation, kept inline as the oracle."""
        masks = block.masks
        valid = masks != 0
        bits = ev._bits(masks)
        starts = ev._starts(block)
        work = ev._work_prefix[block.ends] - ev._work_prefix[starts - 1]
        delta_out = ev._volumes[block.ends]
        compute = work[..., None] / ev._speeds
        next_masks = np.zeros_like(masks)
        next_masks[:, :-1] = masks[:, 1:]
        next_bits = ev._bits(next_masks)
        counts = valid.sum(axis=1)
        col = np.arange(block.width)
        is_last = valid & (col == (counts - 1)[:, None])
        send_uv = delta_out[..., None, None] / ev._links  # (B, width, m, m)
        nb = next_bits[:, :, None, :]
        if ev.one_port:
            sends = np.where(nb, send_uv, 0.0).sum(axis=3)
        else:
            part = np.where(nb, send_uv, -np.inf).max(axis=3)
            sends = np.where(next_bits.any(axis=2)[..., None], part, 0.0)
        out_sends = delta_out[..., None] / ev._out_bw
        sends = np.where(is_last[..., None], out_sends, sends)
        per_replica = compute + sends
        worst = np.where(bits, per_replica, -np.inf).max(axis=2)
        terms = np.where(valid, worst, 0.0)
        in_times = ev.application.input_size / ev._in_bw
        first = bits[:, 0, :]
        if ev.one_port:
            input_term = np.where(first, in_times, 0.0).sum(axis=1)
        else:
            input_term = np.where(first, in_times, -np.inf).max(axis=1)
        return input_term + terms.sum(axis=1)

    @pytest.mark.parametrize("one_port", [True, False])
    @pytest.mark.parametrize("seed", range(3))
    def test_bit_identical_to_legacy(self, one_port, seed):
        app, plat = make_instance("fully-heterogeneous", 5, 4, seed)
        mappings = list(enumerate_interval_mappings(5, 4))
        block = MappingBlock.from_mappings(mappings, 5, 4)
        evaluator = BulkEvaluator(
            app, plat, one_port=one_port, backend="numpy"
        )
        assert np.array_equal(
            evaluator.latencies(block),
            self._legacy_latencies(evaluator, block),
        )

    @given(
        app_platform_mappings(
            platform_strategy=fully_heterogeneous_platforms(
                min_processors=1, max_processors=5
            )
        ),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_on_random_instances(self, triple, one_port):
        app, plat, mappings = triple
        # degenerate draws (e.g. m=1) collapse to uniform links and take
        # the eq. (1) path, which has no send table to compare
        assume(not plat.is_communication_homogeneous)
        block = MappingBlock.from_mappings(
            mappings, app.num_stages, plat.size
        )
        evaluator = BulkEvaluator(
            app, plat, one_port=one_port, backend="numpy"
        )
        assert np.array_equal(
            evaluator.latencies(block),
            self._legacy_latencies(evaluator, block),
        )
