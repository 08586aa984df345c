"""The incremental EvaluationCache must agree *exactly* with the plain
metric functions — on arbitrary mappings, and along the neighbourhood
walks that local search and annealing actually perform."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.heuristics import Neighborhood
from repro.core import (
    EvaluationCache,
    IntervalMapping,
    PipelineApplication,
    Platform,
    evaluate,
    failure_probability,
    latency,
)
from repro.core.enumeration import enumerate_interval_mappings
from repro.exceptions import InvalidMappingError

from tests.strategies import (
    app_platform_mapping,
    comm_homogeneous_platforms,
    fully_heterogeneous_platforms,
    mapping_walks,
)


@given(app_platform_mapping())
@settings(max_examples=150, deadline=None)
def test_cache_matches_evaluate_exactly(triple):
    """Bit-for-bit agreement on a cold cache, any platform class."""
    app, platform, mapping = triple
    cache = EvaluationCache(app, platform)
    ev = evaluate(mapping, app, platform)
    cv = cache.evaluate(mapping)
    assert cv.latency == ev.latency
    assert cv.failure_probability == ev.failure_probability


@given(app_platform_mapping())
@settings(max_examples=100, deadline=None)
def test_warm_cache_matches_evaluate_exactly(triple):
    """A second (fully cached) evaluation returns the same bits."""
    app, platform, mapping = triple
    cache = EvaluationCache(app, platform)
    first = cache.evaluate(mapping)
    hits_before = cache.hits
    second = cache.evaluate(mapping)
    assert cache.hits > hits_before
    assert second.latency == first.latency == latency(mapping, app, platform)
    assert (
        second.failure_probability
        == first.failure_probability
        == failure_probability(mapping, platform)
    )


@given(mapping_walks())
@settings(max_examples=100, deadline=None)
def test_cache_exact_along_neighborhood_walks(walk_triple):
    """Local-search/annealing move sequences never drift from the truth."""
    app, platform, walk = walk_triple
    cache = EvaluationCache(app, platform)
    for mapping in walk:
        assert cache.latency(mapping) == latency(mapping, app, platform)
        assert cache.failure_probability(mapping) == failure_probability(
            mapping, platform
        )


@given(mapping_walks(platform_strategy=fully_heterogeneous_platforms()))
@settings(max_examples=75, deadline=None)
def test_cache_exact_on_heterogeneous_walks(walk_triple):
    """Eq. (2) terms depend on the successor allocation — still exact."""
    app, platform, walk = walk_triple
    cache = EvaluationCache(app, platform)
    for mapping in walk:
        assert cache.latency(mapping) == latency(mapping, app, platform)


@given(
    app_platform_mapping(
        comm_homogeneous_platforms(min_processors=2, max_processors=5)
    )
)
@settings(max_examples=75, deadline=None)
def test_cache_respects_one_port_flag(triple):
    app, platform, mapping = triple
    cache = EvaluationCache(app, platform, one_port=False)
    assert cache.latency(mapping) == latency(
        mapping, app, platform, one_port=False
    )


def test_cache_sweep_matches_full_evaluation_exactly():
    """Deterministic end-to-end check over a whole enumeration sweep."""
    app = PipelineApplication(works=(4.0, 6.0, 2.0, 1.0), volumes=(8.0, 4.0, 4.0, 2.0, 1.0))
    platform = Platform.communication_homogeneous(
        [3.0, 2.0, 1.0, 2.5],
        bandwidth=4.0,
        failure_probabilities=[0.4, 0.1, 0.3, 0.2],
    )
    cache = EvaluationCache(app, platform)
    count = 0
    for mapping in enumerate_interval_mappings(4, 4):
        cv = cache.evaluate(mapping)
        assert cv.latency == latency(mapping, app, platform)
        assert cv.failure_probability == failure_probability(mapping, platform)
        count += 1
    assert count > 100
    stats = cache.stats
    # the whole point: terms are shared massively across the sweep
    assert stats["hits"] > 5 * stats["misses"]


def test_cache_check_flag_validates_compatibility():
    app = PipelineApplication(works=(1.0, 1.0), volumes=(1.0, 1.0, 1.0))
    platform = Platform.fully_homogeneous(2, failure_probability=0.1)
    cache = EvaluationCache(app, platform, check=True)
    bad_stage_count = IntervalMapping.single_interval(3, {1})
    with pytest.raises(InvalidMappingError):
        cache.latency(bad_stage_count)
    bad_processor = IntervalMapping.single_interval(2, {5})
    with pytest.raises(InvalidMappingError):
        cache.failure_probability(bad_processor)


def test_cache_certain_failure_interval():
    """An allocation of all-certain-failure processors yields FP = 1."""
    app = PipelineApplication(works=(1.0, 1.0), volumes=(1.0, 1.0, 1.0))
    platform = Platform.fully_homogeneous(
        2, failure_probability=1.0, speed=1.0, bandwidth=1.0
    )
    mapping = IntervalMapping.single_interval(2, {1, 2})
    cache = EvaluationCache(app, platform)
    assert cache.failure_probability(mapping) == 1.0
    assert cache.failure_probability(mapping) == failure_probability(
        mapping, platform
    )


def test_trusted_enumeration_equals_public_constructor():
    """The fast-path mappings are indistinguishable from validated ones."""
    for fast in enumerate_interval_mappings(3, 3):
        rebuilt = IntervalMapping(fast.intervals, fast.allocations)
        assert fast == rebuilt
        assert fast.num_intervals == rebuilt.num_intervals
        assert fast.used_processors == rebuilt.used_processors


def test_cache_stats_shape():
    app = PipelineApplication(works=(1.0,), volumes=(1.0, 1.0))
    platform = Platform.fully_homogeneous(1, failure_probability=0.5)
    cache = EvaluationCache(app, platform)
    assert cache.stats == {"hits": 0, "misses": 0, "entries": 0}
    cache.evaluate(IntervalMapping.single_interval(1, {1}))
    assert cache.stats["misses"] > 0
    assert math.isfinite(cache.stats["hits"])


class TestPrivateCaches:
    """Every cache starts cold and keeps its terms to itself, so what
    one solve evaluated never reaches another solve's cache."""

    def _instance(self, kind="uniform"):
        from tests.helpers import make_instance

        platform_class = (
            "comm-homogeneous" if kind == "uniform" else "fully-heterogeneous"
        )
        return make_instance(platform_class, 4, 4, 13)

    def _pool(self, app, plat):
        from repro.algorithms.heuristics import single_interval_mappings

        return single_interval_mappings(app, plat)

    @pytest.mark.parametrize("kind", ["uniform", "het"])
    def test_second_cache_starts_cold_and_agrees(self, kind):
        app, plat = self._instance(kind)
        pool = self._pool(app, plat)
        first = EvaluationCache(app, plat)
        expected = [first.evaluate(m) for m in pool]
        second = EvaluationCache(app, plat)
        assert second.stats == {"hits": 0, "misses": 0, "entries": 0}
        got = [second.evaluate(m) for m in pool]
        assert [(g.latency, g.failure_probability) for g in got] == [
            (e.latency, e.failure_probability) for e in expected
        ]
        # the second cache computed every term itself
        assert second.stats == first.stats

    def test_term_tables_are_per_cache(self):
        app, plat = self._instance()
        first = EvaluationCache(app, plat)
        second = EvaluationCache(app, plat)
        assert first._lat_terms is not second._lat_terms
        assert first._rel_terms is not second._rel_terms
        assert first._in_terms is not second._in_terms
        for m in self._pool(app, plat):
            first.evaluate(m)
        assert first.stats["entries"] > 0
        assert second.stats["entries"] == 0

    def test_port_models_on_one_instance_stay_apart(self):
        """Interleaved one-port and multi-port caches each match their
        own plain metric."""
        app, plat = self._instance()
        one_port = EvaluationCache(app, plat, one_port=True)
        multi_port = EvaluationCache(app, plat, one_port=False)
        differ = 0
        for m in self._pool(app, plat):
            a = one_port.latency(m)
            b = multi_port.latency(m)
            assert a == latency(m, app, plat, one_port=True)
            assert b == latency(m, app, plat, one_port=False)
            differ += a != b
        assert differ  # the two port models do disagree on this pool


# ----------------------------------------------------------------------
# interval-run replacements (objectives_with, failure_probability_with)
# ----------------------------------------------------------------------
def _substituted(mapping, j, allocation):
    allocations = list(mapping.allocations)
    allocations[j] = allocation
    return IntervalMapping(mapping.intervals, allocations)


def _with(cache, mapping, j, allocation):
    """The k = 1 case: interval ``j`` kept, its allocation replaced."""
    iv = mapping.intervals[j]
    return cache.objectives_with(mapping, j, 1, (((iv.start, iv.end), allocation),))


def _assert_moves_exact(cache, app, platform, mapping):
    """Every neighbourhood move of ``mapping`` (k <= 2 intervals out, one
    or two in) scored against the plain functions on the moved mapping,
    the FP half first (so it is the call that builds the base folds)."""
    neighborhood = Neighborhood(mapping, platform.size)
    for i in range(neighborhood.size):
        move = neighborhood.move(i)
        moved = neighborhood.apply(move)
        fp = failure_probability(moved, platform)
        assert cache.failure_probability_with(mapping, *move) == fp
        assert cache.objectives_with(mapping, *move) == (
            latency(moved, app, platform, one_port=cache.one_port),
            fp,
        )


def _assert_substitutions_exact(cache, app, platform, mapping, draw_allocation):
    """Every interval of ``mapping`` (first and last included) scored
    with a drawn replacement allocation, against the plain functions."""
    used = mapping.used_processors
    free = [u for u in range(1, platform.size + 1) if u not in used]
    for j, own in enumerate(mapping.allocations):
        allocation = draw_allocation(sorted(own) + free)
        trial = _substituted(mapping, j, allocation)
        assert _with(cache, mapping, j, allocation) == (
            latency(trial, app, platform, one_port=cache.one_port),
            failure_probability(trial, platform),
        )


class TestObjectivesWith:
    @given(app_platform_mapping())
    @settings(max_examples=150, deadline=None)
    def test_every_neighbourhood_move_exact(self, triple):
        """Shift, merge and split replace two intervals or add one; the
        folds around the replaced run stay bit-identical."""
        app, platform, mapping = triple
        _assert_moves_exact(EvaluationCache(app, platform), app, platform, mapping)

    @given(
        app_platform_mapping(
            fully_heterogeneous_platforms(min_processors=2, max_processors=5)
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_every_neighbourhood_move_exact_multi_port(self, triple):
        app, platform, mapping = triple
        cache = EvaluationCache(app, platform, one_port=False)
        _assert_moves_exact(cache, app, platform, mapping)

    @given(mapping_walks(steps=4))
    @settings(max_examples=60, deadline=None)
    def test_moves_along_walks(self, walk_triple):
        """One cache scoring the moves of each state of a walk in turn:
        the base folds follow the mapping object, never go stale."""
        app, platform, walk = walk_triple
        cache = EvaluationCache(app, platform)
        for mapping in walk + walk[::-1]:
            _assert_moves_exact(cache, app, platform, mapping)

    @given(app_platform_mapping(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_substituted_mapping_exactly(self, triple, data):
        """Bit-for-bit agreement for every interval index, any
        platform class, replacement sets that grow, shrink or swap."""
        app, platform, mapping = triple
        cache = EvaluationCache(app, platform)

        def draw_allocation(pool):
            return frozenset(
                data.draw(
                    st.lists(
                        st.sampled_from(pool), min_size=1, unique=True
                    )
                )
            )

        _assert_substitutions_exact(cache, app, platform, mapping, draw_allocation)

    @given(
        app_platform_mapping(
            fully_heterogeneous_platforms(min_processors=2, max_processors=5)
        ),
        st.data(),
    )
    @settings(max_examples=75, deadline=None)
    def test_heterogeneous_multi_port(self, triple, data):
        app, platform, mapping = triple
        cache = EvaluationCache(app, platform, one_port=False)

        def draw_allocation(pool):
            return frozenset(
                data.draw(
                    st.lists(
                        st.sampled_from(pool), min_size=1, unique=True
                    )
                )
            )

        _assert_substitutions_exact(cache, app, platform, mapping, draw_allocation)

    @given(mapping_walks(steps=3))
    @settings(max_examples=60, deadline=None)
    def test_interleaved_base_mappings(self, walk_triple):
        """Switching between base mappings (and back) never serves one
        mapping's folds for another."""
        app, platform, walk = walk_triple
        cache = EvaluationCache(app, platform)
        for mapping in walk + walk[::-1]:
            own = mapping.allocations
            for j in (0, len(own) - 1):
                trial = _substituted(mapping, j, own[j])
                assert _with(cache, mapping, j, own[j]) == (
                    latency(trial, app, platform),
                    failure_probability(trial, platform),
                )

    @pytest.mark.parametrize("kind", ["uniform", "heterogeneous"])
    def test_surely_failing_interval(self, kind):
        """An interval whose replicas all fail surely gives FP = 1,
        whether the substitution creates, keeps or repairs it."""
        app = PipelineApplication(
            works=(2.0, 1.0, 3.0), volumes=(1.0, 2.0, 1.0, 1.0)
        )
        fps = [1.0, 1.0, 0.3, 0.2, 0.5]
        speeds = [1.0, 2.0, 3.0, 1.5, 2.5]
        if kind == "uniform":
            platform = Platform.communication_homogeneous(
                speeds, bandwidth=2.0, failure_probabilities=fps
            )
        else:
            links = [[1.0 + u + v for v in range(5)] for u in range(5)]
            platform = Platform.fully_heterogeneous(
                speeds, [1.0, 2.0, 3.0, 4.0, 5.0], [5.0, 4.0, 3.0, 2.0, 1.0],
                links, failure_probabilities=fps,
            )
        healthy = IntervalMapping([(1, 1), (2, 2), (3, 3)], [{3}, {4}, {5}])
        failing = IntervalMapping([(1, 1), (2, 2), (3, 3)], [{1}, {4}, {5}])
        cache = EvaluationCache(app, platform)
        cases = [
            (healthy, 0, frozenset({1, 2})),  # creates it (j = 0)
            (healthy, 2, frozenset({1})),  # creates it (j = p - 1)
            (failing, 2, frozenset({5, 2})),  # keeps it elsewhere
            (failing, 0, frozenset({1, 3})),  # repairs it
        ]
        for mapping, j, allocation in cases:
            trial = _substituted(mapping, j, allocation)
            lat, fp = _with(cache, mapping, j, allocation)
            assert lat == latency(trial, app, platform)
            assert fp == failure_probability(trial, platform)
            assert (fp == 1.0) == (allocation != frozenset({1, 3}))
            iv = mapping.intervals[j]
            assert fp == cache.failure_probability_with(
                mapping, j, 1, (((iv.start, iv.end), allocation),)
            )
        # every move of both mappings: merges repair the failing interval
        # or carry it along, splits and swaps create or keep it
        for mapping in (healthy, failing):
            _assert_moves_exact(cache, app, platform, mapping)

    def test_check_flag_validates_the_substituted_mapping(self):
        app = PipelineApplication(works=(1.0, 1.0), volumes=(1.0, 1.0, 1.0))
        platform = Platform.fully_homogeneous(3, failure_probability=0.1)
        mapping = IntervalMapping([(1, 1), (2, 2)], [{1}, {2}])
        cache = EvaluationCache(app, platform, check=True)
        assert _with(cache, mapping, 1, frozenset({2, 3})) == (
            cache.latency(_substituted(mapping, 1, {2, 3})),
            cache.failure_probability(_substituted(mapping, 1, {2, 3})),
        )
        for score in (cache.objectives_with, cache.failure_probability_with):
            with pytest.raises(InvalidMappingError):
                score(mapping, 1, 1, (((2, 2), frozenset({2, 7})),))
            with pytest.raises(InvalidMappingError):
                score(mapping, 1, 1, (((2, 2), frozenset({1, 2})),))
            # two intervals replaced by one that does not cover their stages
            with pytest.raises(InvalidMappingError):
                score(mapping, 0, 2, (((1, 1), frozenset({1})),))
        merged = IntervalMapping.single_interval(2, {1, 2})
        assert cache.objectives_with(
            mapping, 0, 2, (((1, 2), frozenset({1, 2})),)
        ) == (cache.latency(merged), cache.failure_probability(merged))
        assert cache.failure_probability_with(
            mapping, 0, 2, (((1, 2), frozenset({1, 2})),)
        ) == cache.failure_probability(merged)
