"""Solver registry: every algorithm behind one ``solve()`` front door.

The paper's algorithms live in three subpackages with three calling
conventions (mono-criterion solvers take ``(application, platform)``,
threshold solvers add a latency or FP bound, heuristics add tuning
options).  The registry normalises all of them to

    solve(name, application, platform, threshold=None, **opts)

and attaches *capability metadata* to each solver — which platform
classes it accepts, whether it is exact or heuristic, which objective it
optimises, whether it consumes a random seed — so batch drivers, the CLI
and the frontier sweeps can select and dispatch solvers by query instead
of hard-coding imports.

Adding a solver is one :func:`register` call (see the bottom of this
module); the engine test suite automatically round-trips every
registered entry against its direct call on the paper's reference
instances.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from ..algorithms import bicriteria, heuristics, mono
from ..algorithms.result import SolverResult
from ..core.application import PipelineApplication
from ..core.platform import FailureClass, Platform, PlatformClass
from ..exceptions import SolverError

__all__ = [
    "Objective",
    "SolverSpec",
    "register",
    "unregister",
    "get_solver",
    "solver_names",
    "solver_specs",
    "solve",
]


class Objective(enum.Enum):
    """Which criterion a solver minimises.

    Threshold solvers constrain the *other* criterion: a ``MIN_FP``
    solver with ``needs_threshold`` takes a latency bound, a
    ``MIN_LATENCY`` one takes an FP bound.
    """

    MIN_FP = "min-fp"
    MIN_LATENCY = "min-latency"


#: shorthand platform-class sets for spec declarations
_ALL = frozenset(PlatformClass)
_UNIFORM_LINKS = frozenset(
    {PlatformClass.FULLY_HOMOGENEOUS, PlatformClass.COMMUNICATION_HOMOGENEOUS}
)
_FULLY_HOM = frozenset({PlatformClass.FULLY_HOMOGENEOUS})


@dataclass(frozen=True)
class SolverSpec:
    """A registered solver plus its capability metadata.

    Attributes
    ----------
    name:
        Registry key (CLI-friendly, unique).
    func:
        The underlying solver callable.
    objective:
        Criterion the solver minimises.
    exact:
        True when the solver guarantees optimality on every instance it
        accepts (within its platform domain and size guards).
    needs_threshold:
        True for bi-criteria threshold queries; the ``threshold``
        argument is then mandatory (latency bound for ``MIN_FP``
        solvers, FP bound for ``MIN_LATENCY`` ones).
    seeded:
        True when the solver accepts a ``seed`` keyword (randomised
        heuristics); the batch executor uses this to derive
        deterministic per-task seeds.
    warm_startable:
        True when the solver accepts a ``warm_starts`` keyword
        (candidate mappings it is guaranteed to match or beat); the
        sweep engine uses this to chain threshold grids
        (:mod:`repro.engine.sweeps`).
    recordable:
        True when the solver accepts a ``recorder`` keyword (a
        :class:`repro.engine.recorder.RunRecorder`) and emits its
        decision trajectory as events; :func:`repro.engine.recorder.record_run`
        refuses solvers without it.
    platforms:
        Platform classes the solver accepts.
    requires_failure_homogeneous:
        True when the solver additionally needs identical failure
        probabilities (Algorithms 3-4).
    description:
        One-line summary shown by ``repro-pipeline batch --list-solvers``.
    version:
        Implementation version, folded into persistent-store keys
        (:func:`repro.engine.store.instance_key`); bump it when a
        solver's results change so stale cached solves are invalidated
        instead of replayed.
    """

    name: str
    func: Callable[..., SolverResult] = field(compare=False)
    objective: Objective
    exact: bool
    needs_threshold: bool
    seeded: bool = False
    warm_startable: bool = False
    recordable: bool = False
    platforms: frozenset[PlatformClass] = _ALL
    requires_failure_homogeneous: bool = False
    description: str = ""
    version: int = 1

    def supports(self, platform: Platform) -> bool:
        """True when the platform's classes are inside the solver's domain."""
        if platform.platform_class not in self.platforms:
            return False
        if (
            self.requires_failure_homogeneous
            and platform.failure_class is not FailureClass.HOMOGENEOUS
        ):
            return False
        return True


_REGISTRY: dict[str, SolverSpec] = {}


def register(spec: SolverSpec) -> SolverSpec:
    """Add a solver to the registry (name must be unused)."""
    if spec.name in _REGISTRY:
        raise ValueError(f"solver {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def unregister(name: str) -> SolverSpec:
    """Remove a solver from the registry, returning its spec.

    Mostly for test fixtures that register synthetic solvers (crashing,
    sleeping, counting) and must leave the registry clean.
    """
    try:
        return _REGISTRY.pop(name)
    except KeyError:
        raise SolverError(f"unknown solver {name!r}") from None


def get_solver(name: str) -> SolverSpec:
    """Look up a spec by name.

    Raises
    ------
    repro.exceptions.SolverError
        For unknown names (the message lists what is available).
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SolverError(
            f"unknown solver {name!r}; registered: {', '.join(sorted(_REGISTRY))}"
        ) from None


def solver_names() -> list[str]:
    """All registered solver names, sorted."""
    return sorted(_REGISTRY)


def solver_specs(
    *,
    objective: Objective | None = None,
    platform: Platform | None = None,
    exact: bool | None = None,
    needs_threshold: bool | None = None,
) -> Iterator[SolverSpec]:
    """Iterate registered specs matching every given filter."""
    for name in sorted(_REGISTRY):
        spec = _REGISTRY[name]
        if objective is not None and spec.objective is not objective:
            continue
        if platform is not None and not spec.supports(platform):
            continue
        if exact is not None and spec.exact != exact:
            continue
        if needs_threshold is not None and spec.needs_threshold != needs_threshold:
            continue
        yield spec


def solve(
    name: str,
    application: PipelineApplication,
    platform: Platform,
    threshold: float | None = None,
    **opts: Any,
) -> SolverResult:
    """Run a registered solver through the uniform interface.

    Raises
    ------
    repro.exceptions.SolverError
        For unknown solvers, a missing/superfluous or NaN threshold, or
        a platform outside the solver's declared domain.  Whatever the
        underlying solver raises (``InfeasibleProblemError``, size-guard
        ``SolverError``...) propagates unchanged.
    """
    spec = get_solver(name)
    if spec.needs_threshold and threshold is None:
        bound = "latency" if spec.objective is Objective.MIN_FP else "FP"
        raise SolverError(f"solver {name!r} requires a {bound} threshold")
    if not spec.needs_threshold and threshold is not None:
        raise SolverError(f"solver {name!r} does not take a threshold")
    # every comparison with NaN is False, so a NaN bound would silently
    # accept any mapping; +-inf stay valid bounds
    if isinstance(threshold, float) and math.isnan(threshold):
        raise SolverError(f"solver {name!r} got a NaN threshold")
    if not spec.supports(platform):
        raise SolverError(
            f"solver {name!r} does not support "
            f"{platform.platform_class.value}/{platform.failure_class.value} "
            f"platforms"
        )
    if spec.needs_threshold:
        return spec.func(application, platform, threshold, **opts)
    return spec.func(application, platform, **opts)


# ----------------------------------------------------------------------
# registrations — one entry per public solver in repro.algorithms
# ----------------------------------------------------------------------
def _spec(**kwargs: Any) -> None:
    register(SolverSpec(**kwargs))


# mono-criterion (Theorems 1-4 and the interval-latency solvers)
_spec(
    name="theorem1-min-fp",
    func=mono.minimize_failure_probability,
    objective=Objective.MIN_FP,
    exact=True,
    needs_threshold=False,
    description="Theorem 1: replicate one interval everywhere (all platforms)",
)
_spec(
    name="theorem2-min-latency",
    func=mono.minimize_latency_comm_homogeneous,
    objective=Objective.MIN_LATENCY,
    exact=True,
    needs_threshold=False,
    platforms=_UNIFORM_LINKS,
    description="Theorem 2: whole pipeline on the fastest processor",
)
_spec(
    name="theorem4-general-latency",
    func=mono.minimize_latency_general,
    objective=Objective.MIN_LATENCY,
    exact=True,
    needs_threshold=False,
    description="Theorem 4: shortest path over the layered graph "
    "(general mappings)",
)
_spec(
    name="general-latency-bruteforce",
    func=mono.minimize_latency_general_bruteforce,
    objective=Objective.MIN_LATENCY,
    exact=True,
    needs_threshold=False,
    description="exhaustive general-mapping baseline (m^n, small instances)",
)
_spec(
    name="one-to-one-exact",
    func=mono.minimize_latency_one_to_one_exact,
    objective=Objective.MIN_LATENCY,
    exact=True,
    needs_threshold=False,
    description="Held-Karp exact one-to-one latency (Theorem 3 space)",
)
_spec(
    name="one-to-one-greedy",
    func=mono.minimize_latency_one_to_one_greedy,
    objective=Objective.MIN_LATENCY,
    exact=False,
    needs_threshold=False,
    description="nearest-neighbour one-to-one construction",
)
_spec(
    name="one-to-one-local-search",
    func=mono.one_to_one_local_search,
    objective=Objective.MIN_LATENCY,
    exact=False,
    needs_threshold=False,
    seeded=True,
    description="2-swap hill climbing over one-to-one assignments",
)
_spec(
    name="interval-latency-exact",
    func=mono.minimize_latency_interval_exact,
    objective=Objective.MIN_LATENCY,
    exact=True,
    needs_threshold=False,
    description="bounded DFS over interval mappings (latency, no replication)",
)
_spec(
    name="interval-latency-sp",
    func=mono.minimize_latency_interval_heuristic,
    objective=Objective.MIN_LATENCY,
    exact=False,
    needs_threshold=False,
    description="shortest-path relaxation with interval repair "
    "(certified when the path is interval-compatible)",
)

# bi-criteria exact (Algorithms 1-4, exhaustive, branch-and-bound)
_spec(
    name="alg1",
    func=bicriteria.algorithm1_minimize_fp,
    objective=Objective.MIN_FP,
    exact=True,
    needs_threshold=True,
    platforms=_FULLY_HOM,
    description="Algorithm 1: min FP s.t. latency <= L (Fully Homogeneous)",
)
_spec(
    name="alg2",
    func=bicriteria.algorithm2_minimize_latency,
    objective=Objective.MIN_LATENCY,
    exact=True,
    needs_threshold=True,
    platforms=_FULLY_HOM,
    description="Algorithm 2: min latency s.t. FP bound (Fully Homogeneous)",
)
_spec(
    name="alg3",
    func=bicriteria.algorithm3_minimize_fp,
    objective=Objective.MIN_FP,
    exact=True,
    needs_threshold=True,
    platforms=_UNIFORM_LINKS,
    requires_failure_homogeneous=True,
    description="Algorithm 3: min FP s.t. latency <= L "
    "(Comm. Homogeneous, homogeneous failures)",
)
_spec(
    name="alg4",
    func=bicriteria.algorithm4_minimize_latency,
    objective=Objective.MIN_LATENCY,
    exact=True,
    needs_threshold=True,
    platforms=_UNIFORM_LINKS,
    requires_failure_homogeneous=True,
    description="Algorithm 4: min latency s.t. FP bound "
    "(Comm. Homogeneous, homogeneous failures)",
)
_spec(
    name="exhaustive-min-fp",
    func=bicriteria.exhaustive_minimize_fp,
    objective=Objective.MIN_FP,
    exact=True,
    needs_threshold=True,
    recordable=True,
    description="exhaustive exact min FP (vectorized block enumeration, "
    "small instances)",
    # v2: vectorized bulk evaluation path (PR 3) — extras and ulp-level
    # tie-breaking changed, so stale store entries must not replay
    # v3: recorder option (record/replay, PR 6) — option surface changed
    version=3,
)
_spec(
    name="exhaustive-min-latency",
    func=bicriteria.exhaustive_minimize_latency,
    objective=Objective.MIN_LATENCY,
    exact=True,
    needs_threshold=True,
    recordable=True,
    description="exhaustive exact min latency (vectorized block "
    "enumeration, small instances)",
    version=3,
)
_spec(
    name="bnb-min-fp",
    func=bicriteria.branch_and_bound_minimize_fp,
    objective=Objective.MIN_FP,
    exact=True,
    needs_threshold=True,
    platforms=_UNIFORM_LINKS,
    description="branch-and-bound exact min FP (uniform links)",
    # v2: a threshold of -inf is infeasible (it was a NaN bound that
    # accepted every mapping) — finite and +inf answers unchanged
    version=2,
)
_spec(
    name="bnb-min-latency",
    func=bicriteria.branch_and_bound_minimize_latency,
    objective=Objective.MIN_LATENCY,
    exact=True,
    needs_threshold=True,
    platforms=_UNIFORM_LINKS,
    description="branch-and-bound exact min latency (uniform links)",
)

# heuristics for the NP-hard / open cases
# v2: bulk candidate-pool scoring (use_bulk knob, PR 4) — results are
# bit-identical to v1 but the accepted option surface changed, so stale
# store entries must not mix with new ones
# v3 (greedy/local-search/anneal): warm_starts option (sweep chaining,
# PR 5) — defaults unchanged, but the option surface changed again
# v3 (single-interval) / v4 (the rest): recorder option (record/replay,
# PR 6) — results unchanged, option surface changed
# v5 (greedy): trials scored from cached interval terms, use_bulk and
# bulk_backend options removed — mappings unchanged, FP products now in
# ascending processor order (at most 1 ulp apart), option surface changed
# v5 (anneal): proposals drawn by index and scored from cached interval
# terms, use_bulk and bulk_backend options removed — trajectories and
# results unchanged, option surface changed
# v5 (local search) / v4 (single-interval): moves scored from cached
# interval terms (local search) and the scalar grid only (single-interval),
# use_bulk and bulk_backend options removed — trajectories and results
# unchanged, option surface changed
# v6 (greedy/anneal): a threshold of -inf is infeasible (it was a NaN bound
# that accepted every mapping) — finite and +inf answers unchanged
_spec(
    name="single-interval-min-fp",
    func=heuristics.single_interval_minimize_fp,
    objective=Objective.MIN_FP,
    exact=False,
    needs_threshold=True,
    recordable=True,
    description="best single-interval mapping under a latency bound",
    version=4,
)
_spec(
    name="single-interval-min-latency",
    func=heuristics.single_interval_minimize_latency,
    objective=Objective.MIN_LATENCY,
    exact=False,
    needs_threshold=True,
    recordable=True,
    description="best single-interval mapping under an FP bound",
    version=4,
)
_spec(
    name="greedy-min-fp",
    func=heuristics.greedy_minimize_fp,
    objective=Objective.MIN_FP,
    exact=False,
    needs_threshold=True,
    warm_startable=True,
    recordable=True,
    description="constructive split-and-replicate (latency bound)",
    version=6,
)
_spec(
    name="greedy-min-latency",
    func=heuristics.greedy_minimize_latency,
    objective=Objective.MIN_LATENCY,
    exact=False,
    needs_threshold=True,
    warm_startable=True,
    recordable=True,
    description="constructive split-and-replicate (FP bound)",
    version=6,
)
_spec(
    name="local-search-min-fp",
    func=heuristics.local_search_minimize_fp,
    objective=Objective.MIN_FP,
    exact=False,
    needs_threshold=True,
    seeded=True,
    warm_startable=True,
    recordable=True,
    description="multi-restart hill climbing (latency bound)",
    version=5,
)
_spec(
    name="local-search-min-latency",
    func=heuristics.local_search_minimize_latency,
    objective=Objective.MIN_LATENCY,
    exact=False,
    needs_threshold=True,
    seeded=True,
    warm_startable=True,
    recordable=True,
    description="multi-restart hill climbing (FP bound)",
    version=5,
)
_spec(
    name="anneal-min-fp",
    func=heuristics.anneal_minimize_fp,
    objective=Objective.MIN_FP,
    exact=False,
    needs_threshold=True,
    seeded=True,
    warm_startable=True,
    recordable=True,
    description="simulated annealing (latency bound)",
    version=6,
)
_spec(
    name="anneal-min-latency",
    func=heuristics.anneal_minimize_latency,
    objective=Objective.MIN_LATENCY,
    exact=False,
    needs_threshold=True,
    seeded=True,
    warm_startable=True,
    recordable=True,
    description="simulated annealing (FP bound)",
    version=6,
)
