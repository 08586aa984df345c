"""Registry coverage and round-trip equivalence with direct solver calls.

Every registered solver is exercised through ``api.solve`` on the
paper's Figure 3/4 and Figure 5 reference instances (when its platform
domain admits them, with synthetic stand-ins for the Fully Homogeneous /
failure-homogeneous domains) and must reproduce its direct call exactly.
"""

import math

import pytest

from repro import api, engine
from repro.algorithms import bicriteria, heuristics, mono
from repro.algorithms.result import threshold_bound
from repro.engine.registry import Objective, get_solver
from repro.exceptions import InfeasibleProblemError, SolverError
from repro.workloads.reference import figure5_instance, figure34_instance

from tests.helpers import make_instance

FIG34 = figure34_instance()
FIG5 = figure5_instance()
FULLY_HOM = make_instance("fully-homogeneous", n=3, m=4, seed=11)
COMM_HOM_FAILHOM = make_instance("comm-homogeneous-failhom", n=3, m=4, seed=12)

#: reference instances as (label, application, platform, latency_bound)
INSTANCES = [
    ("fig34", FIG34.application, FIG34.platform, 1000.0),
    ("fig5", FIG5.application, FIG5.platform, FIG5.latency_threshold),
    ("fully-hom", *FULLY_HOM, 1000.0),
    ("comm-hom-failhom", *COMM_HOM_FAILHOM, 1000.0),
]

#: solvers whose defaults are nondeterministic unless a seed is pinned
PINNED_OPTS = {"one-to-one-local-search": {"seed": 7}}


def _cases():
    for name in api.solver_names():
        spec = get_solver(name)
        for label, app, plat, latency_bound in INSTANCES:
            if not spec.supports(plat):
                continue
            if spec.needs_threshold:
                threshold = (
                    latency_bound
                    if spec.objective is Objective.MIN_FP
                    else 1.0
                )
            else:
                threshold = None
            yield pytest.param(
                name, app, plat, threshold, id=f"{name}-{label}"
            )


@pytest.mark.parametrize("name,app,plat,threshold", list(_cases()))
def test_round_trip_matches_direct_call(name, app, plat, threshold):
    spec = get_solver(name)
    opts = PINNED_OPTS.get(name, {})
    if spec.needs_threshold:
        direct = spec.func(app, plat, threshold, **opts)
        via = api.solve(name, app, plat, threshold=threshold, **opts)
    else:
        direct = spec.func(app, plat, **opts)
        via = api.solve(name, app, plat, **opts)
    assert via.solver == direct.solver
    assert via.latency == direct.latency
    assert via.mapping == direct.mapping
    if math.isnan(direct.failure_probability):
        assert math.isnan(via.failure_probability)
    else:
        assert via.failure_probability == direct.failure_probability
    assert via.optimal == direct.optimal


def test_every_instance_covered_by_some_case():
    """Each reference instance must exercise at least a handful of solvers."""
    ids = [p.id for p in _cases()]
    for label in ("fig34", "fig5", "fully-hom", "comm-hom-failhom"):
        assert sum(1 for i in ids if i.endswith(label)) >= 5, label


def test_registry_covers_every_public_solver():
    """Each solver exported by repro.algorithms is registered."""
    expected = {
        mono.minimize_failure_probability,
        mono.minimize_latency_comm_homogeneous,
        mono.minimize_latency_general,
        mono.minimize_latency_general_bruteforce,
        mono.minimize_latency_one_to_one_exact,
        mono.minimize_latency_one_to_one_greedy,
        mono.one_to_one_local_search,
        mono.minimize_latency_interval_exact,
        mono.minimize_latency_interval_heuristic,
        bicriteria.algorithm1_minimize_fp,
        bicriteria.algorithm2_minimize_latency,
        bicriteria.algorithm3_minimize_fp,
        bicriteria.algorithm4_minimize_latency,
        bicriteria.exhaustive_minimize_fp,
        bicriteria.exhaustive_minimize_latency,
        bicriteria.branch_and_bound_minimize_fp,
        bicriteria.branch_and_bound_minimize_latency,
        heuristics.single_interval_minimize_fp,
        heuristics.single_interval_minimize_latency,
        heuristics.greedy_minimize_fp,
        heuristics.greedy_minimize_latency,
        heuristics.local_search_minimize_fp,
        heuristics.local_search_minimize_latency,
        heuristics.anneal_minimize_fp,
        heuristics.anneal_minimize_latency,
    }
    registered = {get_solver(n).func for n in api.solver_names()}
    missing = {f.__name__ for f in expected - registered}
    assert not missing, f"unregistered solvers: {sorted(missing)}"


def test_specs_filterable_by_objective_and_platform():
    min_fp = list(api.solver_specs(objective=Objective.MIN_FP))
    assert {"alg1", "alg3", "theorem1-min-fp"} <= {s.name for s in min_fp}
    on_fig34 = list(api.solver_specs(platform=FIG34.platform))
    names = {s.name for s in on_fig34}
    assert "alg1" not in names  # fully heterogeneous platform
    assert "theorem2-min-latency" not in names
    assert "exhaustive-min-fp" in names
    exact = {s.name for s in api.solver_specs(exact=True)}
    assert "greedy-min-fp" not in exact
    assert "bnb-min-fp" in exact


class TestDispatchErrors:
    def test_unknown_solver(self):
        with pytest.raises(SolverError, match="unknown solver"):
            api.solve("no-such-solver", FIG34.application, FIG34.platform)

    def test_missing_threshold(self):
        with pytest.raises(SolverError, match="requires a latency threshold"):
            api.solve("greedy-min-fp", FIG5.application, FIG5.platform)

    def test_superfluous_threshold(self):
        with pytest.raises(SolverError, match="does not take a threshold"):
            api.solve(
                "theorem1-min-fp",
                FIG5.application,
                FIG5.platform,
                threshold=10.0,
            )

    def test_nan_threshold(self):
        # every comparison with NaN is False: the bound would be ignored
        with pytest.raises(SolverError, match="NaN threshold"):
            api.solve(
                "greedy-min-fp",
                FIG5.application,
                FIG5.platform,
                threshold=math.nan,
            )

    def test_infinite_threshold_means_no_bound(self):
        result = api.solve(
            "greedy-min-fp", FIG5.application, FIG5.platform, threshold=math.inf
        )
        assert math.isfinite(result.latency)

    def test_platform_outside_domain(self):
        with pytest.raises(SolverError, match="does not support"):
            api.solve(
                "alg1", FIG34.application, FIG34.platform, threshold=10.0
            )

    def test_failure_heterogeneous_rejected_for_alg3(self):
        # fig5 is Communication Homogeneous but failure heterogeneous
        with pytest.raises(SolverError, match="does not support"):
            api.solve(
                "alg3", FIG5.application, FIG5.platform, threshold=22.0
            )

    def test_duplicate_registration_rejected(self):
        spec = get_solver("alg1")
        with pytest.raises(ValueError, match="already registered"):
            engine.register(spec)


class TestInfiniteThresholds:
    """Every threshold solver compares against ``threshold_bound``: no
    mapping meets -inf, every mapping meets +inf, and finite bounds keep
    their relative slack bit for bit."""

    INSTANCE = make_instance("fully-homogeneous", n=4, m=3, seed=0)
    #: (threshold, latency, FP) of the optimum, the same for every solver
    FINITE = {
        Objective.MIN_FP: (30.0, 26.326238137366612, 0.23077723911008388),
        Objective.MIN_LATENCY: (0.5, 25.084283878631105, 0.37623741534864186),
    }

    @pytest.mark.parametrize(
        "name", [s.name for s in api.solver_specs(needs_threshold=True)]
    )
    def test_every_threshold_solver(self, name):
        app, plat = self.INSTANCE
        with pytest.raises(InfeasibleProblemError):
            api.solve(name, app, plat, threshold=-math.inf)
        unbounded = api.solve(name, app, plat, threshold=math.inf)
        assert math.isfinite(unbounded.latency)
        threshold, lat, fp = self.FINITE[get_solver(name).objective]
        result = api.solve(name, app, plat, threshold=threshold)
        assert (result.latency, result.failure_probability) == (lat, fp)

    @pytest.mark.parametrize(
        "threshold", [0.0, 0.5, -3.0, 22.0, 1e300, math.inf, -math.inf]
    )
    def test_threshold_bound(self, threshold):
        expected = (
            threshold
            if math.isinf(threshold)
            else threshold + 1e-9 * max(1.0, abs(threshold))
        )
        assert threshold_bound(threshold, 1e-9) == expected
