"""Warm-start correctness for the heuristic solvers.

The contract (:mod:`repro.algorithms.heuristics.warm`): the returned
result never ranks worse than the best supplied warm start evaluated at
the current threshold, and ``warm_starts=None`` leaves every solver
bit-identical to its previous behaviour.
"""

import pytest

from repro.algorithms.heuristics import (
    anneal_minimize_fp,
    anneal_minimize_latency,
    greedy_minimize_fp,
    greedy_minimize_latency,
    local_search_minimize_fp,
    local_search_minimize_latency,
)
from repro.core.mapping import IntervalMapping
from repro.core.metrics import evaluate
from repro.core.serialization import mapping_to_dict
from repro.exceptions import InvalidMappingError, SolverError

from tests.helpers import make_instance

MIN_FP_SOLVERS = [
    greedy_minimize_fp,
    local_search_minimize_fp,
    anneal_minimize_fp,
]
MIN_LAT_SOLVERS = [
    greedy_minimize_latency,
    local_search_minimize_latency,
    anneal_minimize_latency,
]


@pytest.fixture
def instance():
    return make_instance("comm-homogeneous", 5, 4, 31)


def _exact_optimum(app, plat, threshold):
    from repro.algorithms.bicriteria.exhaustive import exhaustive_minimize_fp

    return exhaustive_minimize_fp(app, plat, threshold)


class TestNeverWorseThanSeed:
    @pytest.mark.parametrize("solver", MIN_FP_SOLVERS)
    @pytest.mark.parametrize("seed_threshold", [30.0, 45.0])
    def test_min_fp_result_never_worse_than_feasible_seed(
        self, instance, solver, seed_threshold
    ):
        """Seeding with the solver's own result at a tighter threshold
        (always feasible at the looser one) can only help."""
        app, plat = instance
        seed_result = solver(app, plat, seed_threshold)
        for threshold in (seed_threshold, seed_threshold + 15.0):
            warm = solver(
                app, plat, threshold, warm_starts=[seed_result.mapping]
            )
            assert warm.latency <= threshold + 1e-9
            assert (warm.failure_probability, warm.latency) <= (
                seed_result.failure_probability,
                seed_result.latency,
            )

    @pytest.mark.parametrize("solver", MIN_LAT_SOLVERS)
    def test_min_latency_result_never_worse_than_feasible_seed(
        self, instance, solver
    ):
        app, plat = instance
        seed_result = solver(app, plat, 0.3)
        warm = solver(app, plat, 0.5, warm_starts=[seed_result.mapping])
        assert warm.failure_probability <= 0.5 + 1e-9
        assert warm.latency <= seed_result.latency

    @pytest.mark.parametrize("solver", MIN_FP_SOLVERS)
    def test_exact_seed_is_returned_verbatim(self, instance, solver):
        """Seeded with the exhaustive optimum, every heuristic must
        report exactly the optimal objectives (it cannot improve, and
        the contract forbids doing worse)."""
        app, plat = instance
        threshold = 40.0
        optimum = _exact_optimum(app, plat, threshold)
        warm = solver(
            app, plat, threshold, warm_starts=[optimum.mapping]
        )
        assert warm.failure_probability == optimum.failure_probability

    @pytest.mark.parametrize("solver", MIN_FP_SOLVERS)
    def test_infeasible_seed_does_not_poison_the_search(
        self, instance, solver
    ):
        """A warm start that violates the threshold is still accepted as
        a hint; the result must nevertheless be feasible and no worse
        than the cold run's feasible candidates allow."""
        app, plat = instance
        # whole pipeline on the slowest processor: latency-infeasible at
        # a tight threshold on this instance
        slow = min(
            range(1, plat.size + 1), key=lambda u: plat.speed(u)
        )
        bad_seed = IntervalMapping.single_interval(app.num_stages, {slow})
        tight = evaluate(bad_seed, app, plat).latency * 0.5
        try:
            cold = solver(app, plat, tight)
        except Exception:
            pytest.skip("threshold infeasible even for the cold run")
        warm = solver(app, plat, tight, warm_starts=[bad_seed])
        assert warm.latency <= tight + 1e-9 * max(1.0, tight)
        assert warm.failure_probability <= cold.failure_probability + 1e-12


class TestArgumentForms:
    @pytest.mark.parametrize("solver", MIN_FP_SOLVERS)
    def test_serialized_dict_equals_mapping_object(self, instance, solver):
        app, plat = instance
        seed_result = solver(app, plat, 35.0)
        via_obj = solver(
            app, plat, 50.0, warm_starts=[seed_result.mapping]
        )
        via_dict = solver(
            app,
            plat,
            50.0,
            warm_starts=[mapping_to_dict(seed_result.mapping)],
        )
        assert (via_obj.latency, via_obj.failure_probability) == (
            via_dict.latency,
            via_dict.failure_probability,
        )

    @pytest.mark.parametrize("solver", MIN_FP_SOLVERS)
    def test_none_and_empty_are_bit_identical_to_default(
        self, instance, solver
    ):
        app, plat = instance
        base = solver(app, plat, 45.0)
        for warm_starts in (None, []):
            again = solver(app, plat, 45.0, warm_starts=warm_starts)
            assert (again.latency, again.failure_probability) == (
                base.latency,
                base.failure_probability,
            )
            assert again.mapping == base.mapping

    def test_general_mapping_rejected(self, instance):
        app, plat = instance
        bogus = {"schema": 1, "kind": "general-mapping", "assignment": [1] * 5}
        with pytest.raises(SolverError, match="interval mapping"):
            greedy_minimize_fp(app, plat, 50.0, warm_starts=[bogus])

    def test_junk_entry_rejected(self, instance):
        app, plat = instance
        with pytest.raises(SolverError, match="warm starts"):
            greedy_minimize_fp(app, plat, 50.0, warm_starts=[42])


class TestIncompatibleWarmStarts:
    """Every heuristic validates its warm starts against the instance
    before any work: a bad one is a deterministic input error, not an
    ``IndexError`` halfway through a descent or an annealing walk."""

    #: (solver, threshold) for each heuristic entry point
    ENTRY_POINTS = [
        (greedy_minimize_fp, 50.0),
        (greedy_minimize_latency, 0.5),
        (local_search_minimize_fp, 50.0),
        (local_search_minimize_latency, 0.5),
        (anneal_minimize_fp, 50.0),
        (anneal_minimize_latency, 0.5),
    ]

    @pytest.mark.parametrize(("solver", "threshold"), ENTRY_POINTS)
    @pytest.mark.parametrize(
        ("bogus", "match"),
        [
            (IntervalMapping([(1, 2), (3, 4)], [{1}, {7}]), "P7"),
            (IntervalMapping([(1, 4)], [{0}]), "P0"),
            (IntervalMapping([(1, 2), (3, 5)], [{1}, {2}]), "5 stages"),
        ],
        ids=["processor-past-m", "processor-zero", "stage-count"],
    )
    def test_rejected_before_any_work(self, solver, threshold, bogus, match):
        app, plat = make_instance("comm-homogeneous", n=4, m=3, seed=0)
        good = IntervalMapping.single_interval(4, {1})
        for warm_starts in ([bogus], [good, mapping_to_dict(bogus)]):
            with pytest.raises(InvalidMappingError, match=match):
                solver(app, plat, threshold, warm_starts=warm_starts)

    @pytest.mark.parametrize(
        ("name", "threshold"),
        [
            ("greedy-min-fp", 50.0),
            ("local-search-min-fp", 50.0),
            ("anneal-min-fp", 50.0),
            ("anneal-min-latency", 0.5),
        ],
    )
    def test_batch_verdict_is_invalid(self, name, threshold):
        """Through ``run_batch`` the verdict is deterministic (never
        retried, storable), not a crash."""
        from repro import api
        from repro.engine.policy import ErrorKind

        app, plat = make_instance("comm-homogeneous", n=4, m=3, seed=0)
        bogus = mapping_to_dict(IntervalMapping([(1, 2), (3, 4)], [{1}, {7}]))
        (outcome,) = api.run_batch(
            [
                api.BatchTask(
                    name,
                    app,
                    plat,
                    threshold=threshold,
                    opts={"warm_starts": [bogus]},
                )
            ]
        )
        assert not outcome.ok
        assert outcome.error_kind is ErrorKind.INVALID
        assert "P7" in outcome.error


class TestEngineDispatch:
    def test_warm_starts_flow_through_registry_solve(self, instance):
        from repro.api import solve

        app, plat = instance
        seed_result = solve("greedy-min-fp", app, plat, 35.0)
        warm = solve(
            "greedy-min-fp",
            app,
            plat,
            60.0,
            warm_starts=[mapping_to_dict(seed_result.mapping)],
        )
        assert warm.failure_probability <= seed_result.failure_probability

    def test_warm_startable_metadata(self):
        from repro.api import get_solver

        for name in (
            "greedy-min-fp",
            "greedy-min-latency",
            "local-search-min-fp",
            "local-search-min-latency",
            "anneal-min-fp",
            "anneal-min-latency",
        ):
            assert get_solver(name).warm_startable
        for name in ("single-interval-min-fp", "exhaustive-min-fp", "alg1"):
            assert not get_solver(name).warm_startable
