"""Unified sweep engine: every grid experiment behind one front door.

The paper's central experiments are *threshold sweeps* — solve one
(application, platform) instance across a grid of latency/reliability
thresholds to trace a Pareto frontier.  Before this module the sweep
logic was scattered (``analysis.frontier.sweep_frontier``,
``engine.batch.threshold_sweep``, the exhaustive one-pass fast path),
each with its own caching story and no reuse between adjacent grid
points.  Here a sweep is *declarative*:

* :class:`SweepPlan` — instances × solvers × threshold grid, built
  programmatically or from a JSON/dict spec (:meth:`SweepPlan.from_spec`);
  instances can reference the named scenario generators of
  :mod:`repro.workloads.scenarios`;
* :func:`iter_sweep` / :func:`run_sweep` — compile the plan into **one
  dependency-aware task graph** executed by a single
  :func:`repro.engine.batch.iter_graph` pass, so worker sharding, fault
  isolation, retry/timeout policies and the persistent result store all
  apply unchanged — and cells from different instances/solvers
  interleave freely across the pool instead of running one cell at a
  time.  :func:`iter_sweep` streams completed :class:`SweepCell`\\ s
  (or per-point :class:`SweepPoint`\\ s) as they finish;
  :func:`run_sweep` is its drained, plan-ordered wrapper.

The compilation is direct: an independent grid point becomes one graph
node; a warm-start chain becomes a path of nodes linked by
``depends_on`` edges whose resolvers inject the previous accepted
mapping as a seed right before dispatch; an exhaustive one-pass cell
becomes a single node answering its whole grid from one enumeration
pass.  Only true dependencies serialise — everything else runs as wide
as ``workers`` allows.  Every solve builds its own
:class:`~repro.core.metrics.EvaluationCache` and drops it when it
returns; no evaluation terms are shared between grid points.

On top of plain batching the sweep engine adds two grid-level
optimisations — dedup is bit-identical to the naive sweep; warm-start
chaining may return *different* (never worse than its seeds, possibly
better) results and is therefore opt-in:

* **duplicate-threshold dedup** — equal grid points are solved once and
  fanned back out to every original position (previously each duplicate
  re-solved the same query);
* **warm-start chaining** (``warm_start="chain"``) — on a monotone grid
  (detected automatically) the accepted mapping at threshold ``t_i``
  seeds the warm-startable heuristics at ``t_{i+1}``
  (:mod:`repro.algorithms.heuristics.warm`).  Each chained solve is
  provably never worse than its seed evaluated at the new threshold, so
  on a loosening grid the chained frontier weakly dominates the chain of
  seeds; with reduced per-point effort (``chain_opts``) this is what
  makes dense heuristic grids cheap (bench E22).  Chaining is inherently
  sequential, so it runs in-process; non-monotone grids and
  non-warm-startable solvers fall back to the batched path.

``analysis.frontier.sweep_frontier`` and
``engine.batch.threshold_sweep`` are thin wrappers over this module.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Iterator, Mapping, Sequence

from ..core.application import PipelineApplication
from ..core.pareto import BiCriteriaPoint, pareto_front
from ..core.platform import Platform
from ..core.serialization import (
    application_from_dict,
    application_to_dict,
    mapping_to_dict,
    platform_from_dict,
    platform_to_dict,
)
from ..exceptions import ReproError, SolverError
from .batch import (
    BatchOutcome,
    BatchTask,
    GraphNode,
    _execute,
    iter_graph,
)
from .policy import BatchPolicy, ErrorKind
from .registry import Objective, SolverSpec, get_solver
from .store import ResultStore

__all__ = [
    "SPEC_SCHEMA_VERSION",
    "SPEC_KIND_SWEEP",
    "SweepInstance",
    "SweepSolver",
    "SweepPlan",
    "SweepCell",
    "SweepPoint",
    "SweepResult",
    "iter_sweep",
    "run_sweep",
]

#: version of the declarative spec schema shared by
#: :meth:`SweepPlan.from_spec`, the CLI ``sweep``/``submit`` commands
#: and the solve-service protocol (re-exported as
#: :data:`repro.api.SCHEMA_VERSION`).  Bump it when the accepted
#: top-level keys or their meaning change incompatibly.  Specs that
#: *declare* a schema get strict validation (unknown top-level keys are
#: rejected by name); legacy specs without the field keep the historic
#: lenient behaviour, so old spec files still load.
SPEC_SCHEMA_VERSION = 1

#: ``kind`` field stamped into sweep specs by :meth:`SweepPlan.to_spec`;
#: :func:`repro.api.load_spec` dispatches sweep vs simulation specs on it
SPEC_KIND_SWEEP = "sweep"

#: every top-level key a version-1 sweep spec may carry
_SPEC_KEYS = frozenset(
    {
        "schema",
        "kind",
        "instances",
        "solvers",
        "thresholds",
        "grid",
        "warm_start",
        "one_pass_exhaustive",
    }
)

#: effort reductions applied to chained (non-first) grid points when the
#: solver entry does not specify its own ``chain_opts``: a solver seeded
#: with the previous optimum does not need its full cold restart budget
_DEFAULT_CHAIN_OPTS: dict[str, dict[str, Any]] = {
    "local-search-min-fp": {"restarts": 2},
    "local-search-min-latency": {"restarts": 2},
}


# ----------------------------------------------------------------------
# plan model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepInstance:
    """One (application, platform) pair inside a plan.

    ``scenario`` records the ``(name, seed, params)`` provenance when
    the instance came from a scenario generator, so
    :meth:`SweepPlan.to_spec` can round-trip the compact form instead of
    the serialised arrays.
    """

    application: PipelineApplication
    platform: Platform
    tag: str = ""
    scenario: Mapping[str, Any] | None = field(default=None, compare=False)

    @classmethod
    def from_spec(cls, spec: Mapping[str, Any], index: int) -> "SweepInstance":
        if not isinstance(spec, Mapping):
            raise ReproError(
                f"sweep instance {index} must be an object, "
                f"got {type(spec).__name__}"
            )
        if "scenario" in spec:
            from ..workloads.scenarios import make_scenario

            name = spec["scenario"]
            seed = spec.get("seed")
            params = dict(spec.get("params", {}))
            application, platform = make_scenario(
                name, seed=seed, params=params
            )
            tag = spec.get("tag") or f"{name}[seed={seed}]"
            return cls(
                application,
                platform,
                tag=tag,
                scenario={"scenario": name, "seed": seed, "params": params},
            )
        if "application" in spec and "platform" in spec:
            return cls(
                application_from_dict(spec["application"]),
                platform_from_dict(spec["platform"]),
                tag=spec.get("tag") or f"instance-{index}",
            )
        raise ReproError(
            "a sweep instance spec needs either a 'scenario' name or an "
            "inline 'application' + 'platform'"
        )

    def to_spec(self) -> dict[str, Any]:
        if self.scenario is not None:
            return {"tag": self.tag, **dict(self.scenario)}
        return {
            "tag": self.tag,
            "application": application_to_dict(self.application),
            "platform": platform_to_dict(self.platform),
        }


@dataclass(frozen=True)
class SweepSolver:
    """One solver entry: registry name, base options, chain overrides.

    ``chain_opts`` (merged over ``opts`` on every chained, i.e.
    non-first, grid point) is where warm-start sweeps dial the per-point
    effort down; ``None`` picks the per-solver defaults
    (``_DEFAULT_CHAIN_OPTS``), ``{}`` disables any reduction.
    """

    name: str
    opts: Mapping[str, Any] = field(default_factory=dict)
    chain_opts: Mapping[str, Any] | None = None

    @classmethod
    def from_spec(
        cls, spec: "str | Mapping[str, Any]"
    ) -> "SweepSolver":
        if isinstance(spec, str):
            return cls(name=spec)
        if not isinstance(spec, Mapping) or "name" not in spec:
            raise ReproError(
                "a sweep solver entry must be a registry name or an "
                "object with a 'name'"
            )
        return cls(
            name=spec["name"],
            opts=dict(spec.get("opts", {})),
            chain_opts=(
                dict(spec["chain_opts"]) if "chain_opts" in spec else None
            ),
        )

    def to_spec(self) -> dict[str, Any]:
        out: dict[str, Any] = {"name": self.name, "opts": dict(self.opts)}
        if self.chain_opts is not None:
            out["chain_opts"] = dict(self.chain_opts)
        return out

    def effective_chain_opts(self) -> dict[str, Any]:
        if self.chain_opts is not None:
            return dict(self.chain_opts)
        return dict(_DEFAULT_CHAIN_OPTS.get(self.name, {}))


@dataclass(frozen=True)
class SweepPlan:
    """A declarative grid experiment: instances × solvers × thresholds.

    ``thresholds`` applies to every instance; ``None`` derives a
    per-instance latency grid
    (:func:`repro.analysis.frontier.latency_grid` with ``num_points``),
    which is only meaningful for latency-bounded (``MIN_FP``) solvers.
    ``warm_start`` is the chaining knob (``"off"`` | ``"chain"``);
    ``one_pass_exhaustive`` lets exhaustive min-FP sweeps answer the
    whole grid from a single enumeration pass when no store/worker
    sharding is involved.
    """

    instances: tuple[SweepInstance, ...]
    solvers: tuple[SweepSolver, ...]
    thresholds: tuple[float, ...] | None = None
    num_points: int = 20
    warm_start: str = "off"
    one_pass_exhaustive: bool = True

    def __post_init__(self) -> None:
        if not self.instances:
            raise ReproError("a sweep plan needs at least one instance")
        if not self.solvers:
            raise ReproError("a sweep plan needs at least one solver")
        if self.warm_start not in ("off", "chain"):
            raise ReproError(
                f"warm_start must be 'off' or 'chain', got {self.warm_start!r}"
            )
        for solver in self.solvers:
            spec = get_solver(solver.name)  # raises on unknown names
            if not spec.needs_threshold:
                raise ReproError(
                    f"solver {solver.name!r} takes no threshold and cannot "
                    "be swept"
                )

    # -- construction ---------------------------------------------------
    @classmethod
    def single(
        cls,
        application: PipelineApplication,
        platform: Platform,
        solver: str,
        thresholds: Sequence[float] | None = None,
        *,
        opts: Mapping[str, Any] | None = None,
        chain_opts: Mapping[str, Any] | None = None,
        num_points: int = 20,
        warm_start: str = "off",
        one_pass_exhaustive: bool = True,
        tag: str = "instance-0",
    ) -> "SweepPlan":
        """One instance, one solver — the classic threshold sweep."""
        return cls(
            instances=(SweepInstance(application, platform, tag=tag),),
            solvers=(
                SweepSolver(
                    name=solver, opts=dict(opts or {}), chain_opts=chain_opts
                ),
            ),
            thresholds=(
                tuple(float(t) for t in thresholds)
                if thresholds is not None
                else None
            ),
            num_points=num_points,
            warm_start=warm_start,
            one_pass_exhaustive=one_pass_exhaustive,
        )

    @classmethod
    def from_spec(cls, spec: Mapping[str, Any]) -> "SweepPlan":
        """Build a plan from its JSON/dict form (see module docstring)."""
        if not isinstance(spec, Mapping):
            raise ReproError(
                f"a sweep spec must be an object, got {type(spec).__name__}"
            )
        kind = spec.get("kind")
        if kind is not None and kind != SPEC_KIND_SWEEP:
            raise ReproError(
                f"sweep spec 'kind' must be {SPEC_KIND_SWEEP!r}, "
                f"got {kind!r}"
            )
        schema = spec.get("schema")
        if schema is not None:
            if isinstance(schema, bool) or not isinstance(schema, int):
                raise ReproError(
                    f"sweep spec 'schema' must be an integer, got {schema!r}"
                )
            if schema < 1 or schema > SPEC_SCHEMA_VERSION:
                raise ReproError(
                    f"sweep spec schema {schema} is not supported (this "
                    f"library speaks schema 1..{SPEC_SCHEMA_VERSION})"
                )
            # a declared schema buys strict validation: a typo like
            # 'warmstart' must fail loudly instead of being ignored
            unknown = sorted(set(spec) - _SPEC_KEYS)
            if unknown:
                raise ReproError(
                    "unknown sweep spec key(s) "
                    + ", ".join(repr(k) for k in unknown)
                    + f" (schema {schema} accepts: "
                    + ", ".join(sorted(_SPEC_KEYS))
                    + ")"
                )
        if "instances" not in spec or "solvers" not in spec:
            raise ReproError(
                "a sweep spec needs 'instances' and 'solvers' lists"
            )
        thresholds = spec.get("thresholds")
        grid = spec.get("grid", {})
        if thresholds is not None and grid:
            raise ReproError(
                "a sweep spec takes either explicit 'thresholds' or a "
                "'grid', not both"
            )
        return cls(
            instances=tuple(
                SweepInstance.from_spec(entry, i)
                for i, entry in enumerate(spec["instances"])
            ),
            solvers=tuple(
                SweepSolver.from_spec(entry) for entry in spec["solvers"]
            ),
            thresholds=(
                tuple(float(t) for t in thresholds)
                if thresholds is not None
                else None
            ),
            num_points=int(grid.get("num_points", 20)),
            warm_start=spec.get("warm_start", "off"),
            one_pass_exhaustive=bool(spec.get("one_pass_exhaustive", True)),
        )

    def to_spec(self) -> dict[str, Any]:
        """JSON-compatible dict form (inverse of :meth:`from_spec`)."""
        out: dict[str, Any] = {
            "schema": SPEC_SCHEMA_VERSION,
            "kind": SPEC_KIND_SWEEP,
            "instances": [inst.to_spec() for inst in self.instances],
            "solvers": [solver.to_spec() for solver in self.solvers],
            "warm_start": self.warm_start,
            "one_pass_exhaustive": self.one_pass_exhaustive,
        }
        if self.thresholds is not None:
            out["thresholds"] = list(self.thresholds)
        else:
            out["grid"] = {"num_points": self.num_points}
        return out

    def grid_for(self, instance: SweepInstance) -> list[float]:
        """The instance's threshold grid (explicit or derived)."""
        if self.thresholds is not None:
            return [float(t) for t in self.thresholds]
        for solver in self.solvers:
            if get_solver(solver.name).objective is not Objective.MIN_FP:
                raise ReproError(
                    "an automatic latency grid only fits latency-bounded "
                    f"(min-FP) solvers; give explicit thresholds for "
                    f"{solver.name!r}"
                )
        from ..analysis.frontier import latency_grid

        return latency_grid(
            instance.application,
            instance.platform,
            num_points=self.num_points,
        )


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepCell:
    """All outcomes of one (instance, solver) pair over the grid.

    ``outcomes`` has one entry per *original* grid position (duplicates
    share the solved outcome, re-indexed); ``unique_thresholds`` is how
    many points were actually dispatched, ``chained`` whether warm-start
    chaining ran.
    """

    instance_tag: str
    solver: str
    thresholds: tuple[float, ...]
    outcomes: tuple[BatchOutcome, ...]
    unique_thresholds: int
    chained: bool

    def results(self) -> list[Any]:
        """The successful :class:`SolverResult`\\ s, in grid order."""
        return [o.result for o in self.outcomes if o.ok]

    def frontier(self, *, strict: bool = True) -> list[BiCriteriaPoint]:
        """Pareto frontier of the cell's successful outcomes.

        Infeasible thresholds are skipped; with ``strict`` (default) any
        *other* failure kind raises — a crashed solver must not
        silently produce a thinner frontier.
        """
        if strict:
            self.raise_on_failure()
        return pareto_front(
            [
                BiCriteriaPoint(
                    o.result.latency,
                    o.result.failure_probability,
                    payload=o.result.mapping,
                )
                for o in self.outcomes
                if o.ok
            ]
        )

    def raise_on_failure(self) -> None:
        """Raise :class:`SolverError` on any non-infeasible failure."""
        for outcome in self.outcomes:
            if outcome.result is None and (
                outcome.error_kind is not ErrorKind.INFEASIBLE
            ):
                raise SolverError(
                    f"sweep {outcome.tag} failed: {outcome.error}"
                )


@dataclass(frozen=True)
class SweepPoint:
    """One streamed grid point (``iter_sweep(..., stream="points")``).

    ``index`` is the point's position in the *original* grid of its
    cell (duplicate thresholds each get their own point, sharing the
    solved ``outcome`` re-indexed), so consumers can reassemble cells
    or plot points as they land.
    """

    instance_tag: str
    solver: str
    threshold: float
    index: int
    outcome: BatchOutcome


@dataclass(frozen=True)
class SweepResult:
    """Every cell of one :func:`run_sweep` call."""

    cells: tuple[SweepCell, ...]

    def __iter__(self) -> Iterator[SweepCell]:
        return iter(self.cells)

    def cell(
        self, instance_tag: str | None = None, solver: str | None = None
    ) -> SweepCell:
        """The unique cell matching the given filters.

        Raises
        ------
        repro.exceptions.ReproError
            When no cell, or more than one, matches.
        """
        matches = [
            c
            for c in self.cells
            if (instance_tag is None or c.instance_tag == instance_tag)
            and (solver is None or c.solver == solver)
        ]
        if len(matches) != 1:
            raise ReproError(
                f"{len(matches)} sweep cells match "
                f"(instance_tag={instance_tag!r}, solver={solver!r})"
            )
        return matches[0]


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def _is_monotone(values: Sequence[float]) -> bool:
    ascending = all(a <= b for a, b in zip(values, values[1:]))
    descending = all(a >= b for a, b in zip(values, values[1:]))
    return ascending or descending


def _infeasible_outcome(
    index: int, task: BatchTask, elapsed: float
) -> BatchOutcome:
    return BatchOutcome(
        index=index,
        solver=task.solver,
        tag=task.tag,
        result=None,
        error=(
            "InfeasibleProblemError: no mapping satisfies threshold "
            f"{task.threshold:g}"
        ),
        elapsed=elapsed,
        task=task,
        error_kind=ErrorKind.INFEASIBLE,
    )


def _one_pass_runner(
    payload: tuple[int, BatchTask, dict[str, Any], BatchPolicy],
) -> list[BatchOutcome]:
    """Graph runner: a whole threshold grid from one enumeration pass.

    The node's template task carries the cell's unique grid in
    ``opts["_sweep_thresholds"]``; per-threshold results are identical
    to solving each point alone (the machine-checked contract of
    :func:`~repro.algorithms.bicriteria.exhaustive.exhaustive_sweep_min_fp`).
    Any failure of the one-pass enumeration (size guards, numpy quirks)
    falls back to per-point solves *inside the node*, with the same
    fault isolation as the batched path.  Top-level so multiprocessing
    can pickle it — under ``workers>1`` the whole cell runs in one pool
    worker while other cells proceed in parallel.
    """
    _, template, opts, policy = payload
    thresholds = [float(t) for t in opts["_sweep_thresholds"]]
    tasks = [
        replace(template, threshold=t, opts={}, tag=f"threshold={t:g}")
        for t in thresholds
    ]
    from ..algorithms.bicriteria.exhaustive import exhaustive_sweep_min_fp

    start = time.perf_counter()
    try:
        results = exhaustive_sweep_min_fp(
            template.application, template.platform, thresholds
        )
    except Exception:
        return [
            _execute((i, task, dict(task.opts), policy))
            for i, task in enumerate(tasks)
        ]
    per_point = (time.perf_counter() - start) / max(len(thresholds), 1)
    outcomes: list[BatchOutcome] = []
    for i, (task, result) in enumerate(zip(tasks, results)):
        if result is None:
            outcomes.append(_infeasible_outcome(i, task, per_point))
        else:
            outcomes.append(
                BatchOutcome(
                    index=i,
                    solver=task.solver,
                    tag=task.tag,
                    result=result,
                    error=None,
                    elapsed=per_point,
                    task=task,
                )
            )
    return outcomes


def _one_pass_applies(
    plan: SweepPlan, solver: SweepSolver, store: ResultStore | None
) -> bool:
    """True when a cell compiles to the exhaustive one-pass node."""
    if not (
        plan.one_pass_exhaustive
        and solver.name == "exhaustive-min-fp"
        and not solver.opts
        and store is None
    ):
        return False
    from ..core.metrics_bulk import HAS_NUMPY

    return HAS_NUMPY


# ----------------------------------------------------------------------
# plan compilation: cells -> graph nodes
# ----------------------------------------------------------------------
@dataclass
class _CellBuild:
    """One compiled (instance, solver) cell, pre-execution."""

    cell_index: int
    instance: SweepInstance
    solver: SweepSolver
    spec: SolverSpec
    grid: list[float]
    unique: list[float]
    tasks: list[BatchTask]
    chained: bool
    one_pass: bool


def _compile_cell(
    plan: SweepPlan,
    instance: SweepInstance,
    solver: SweepSolver,
    *,
    store: ResultStore | None,
    cell_index: int,
) -> _CellBuild:
    grid = [float(t) for t in plan.grid_for(instance)]
    spec = get_solver(solver.name)
    unique = list(dict.fromkeys(grid))
    tasks = [
        BatchTask(
            solver=solver.name,
            application=instance.application,
            platform=instance.platform,
            threshold=t,
            opts=dict(solver.opts),
            tag=f"threshold={t:g}",
        )
        for t in unique
    ]
    one_pass = bool(tasks) and _one_pass_applies(plan, solver, store)
    chained = (
        not one_pass
        and plan.warm_start == "chain"
        and spec.warm_startable
        and len(unique) > 1
        and _is_monotone(unique)
    )
    return _CellBuild(
        cell_index=cell_index,
        instance=instance,
        solver=solver,
        spec=spec,
        grid=grid,
        unique=unique,
        tasks=tasks,
        chained=chained,
        one_pass=one_pass,
    )


def _make_chain_resolver(
    solver: SweepSolver,
    spec: SolverSpec,
    seed: int | None,
    pos: int,
    state: dict[str, Any],
):
    """Resolver for chained point ``pos``: seed it with the last optimum.

    ``state`` is shared by every node of one chain; the resolver runs in
    dependency order (the graph guarantees the predecessor completed),
    so recording the predecessor's mapping here reproduces the serial
    chain exactly.  A failed predecessor leaves ``last_good`` at the
    most recent *successful* point — the chain degrades instead of
    propagating a missing seed; with no good point yet the solve runs
    unseeded at full effort (no chain-opts reduction).
    """

    def resolve(
        task: BatchTask,
        deps: Mapping[str, BatchOutcome | list[BatchOutcome]],
    ) -> BatchTask:
        for outcome in deps.values():
            if isinstance(outcome, BatchOutcome) and outcome.ok:
                state["last_good"] = outcome.result.mapping
        opts = dict(task.opts)
        if spec.seeded and seed is not None and "seed" not in opts:
            # the same derived per-task seed the batched path would use
            opts["seed"] = seed + pos
        previous = state["last_good"]
        if previous is not None:
            opts.update(solver.effective_chain_opts())
            opts["warm_starts"] = [mapping_to_dict(previous)]
        return replace(task, opts=opts)

    return resolve


def _compile_nodes(
    build: _CellBuild, seed: int | None
) -> list[tuple[GraphNode, int | None]]:
    """Graph nodes for one cell, each paired with its unique-grid
    position (``None`` for the one-pass node, whose outcomes carry
    their own positions)."""
    prefix = f"c{build.cell_index}"
    if not build.tasks:
        return []
    if build.one_pass:
        template = BatchTask(
            solver=build.solver.name,
            application=build.instance.application,
            platform=build.instance.platform,
            threshold=None,
            opts={"_sweep_thresholds": tuple(build.unique)},
            tag=f"{build.instance.tag}/{build.solver.name}",
        )
        node = GraphNode(
            name=f"{prefix}:grid",
            task=template,
            runner=_one_pass_runner,
            seed_index=0,
        )
        return [(node, None)]
    if build.chained:
        state: dict[str, Any] = {"last_good": None}
        nodes: list[tuple[GraphNode, int | None]] = []
        previous_name: str | None = None
        for pos, task in enumerate(build.tasks):
            name = f"{prefix}:p{pos}"
            nodes.append(
                (
                    GraphNode(
                        name=name,
                        task=task,
                        depends_on=(
                            (previous_name,) if previous_name else ()
                        ),
                        resolve=_make_chain_resolver(
                            build.solver, build.spec, seed, pos, state
                        ),
                        seed_index=pos,
                    ),
                    pos,
                )
            )
            previous_name = name
        return nodes
    return [
        (
            GraphNode(name=f"{prefix}:p{pos}", task=task, seed_index=pos),
            pos,
        )
        for pos, task in enumerate(build.tasks)
    ]


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def iter_sweep(
    plan: SweepPlan,
    *,
    workers: int | None = None,
    seed: int | None = None,
    policy: BatchPolicy | None = None,
    store: ResultStore | None = None,
    in_order: bool = True,
    stream: str = "cells",
) -> "Iterator[SweepCell | SweepPoint]":
    """Execute a :class:`SweepPlan`, streaming results as they finish.

    The whole plan compiles to one task graph executed by
    :func:`~repro.engine.batch.iter_graph`: independent grid points
    (across *all* cells) interleave freely over the worker pool,
    warm-start chains advance point-by-point along dependency edges,
    and every completed cell is yielded the moment its last point
    lands — a consumer sees the first cell long before the plan ends.

    Parameters mirror :func:`run_sweep` (which is the drained
    ``in_order=True`` wrapper), plus:

    in_order:
        True (default) yields cells in plan order (instances × solvers,
        buffering early completions); False yields in completion order.
    stream:
        ``"cells"`` (default) yields :class:`SweepCell`\\ s;
        ``"points"`` yields one :class:`SweepPoint` per original grid
        position as its solve completes (duplicates fan out
        immediately), for consumers that want per-point progress.

    Outcomes are identical to :func:`run_sweep` under the same ``seed``
    — only the delivery changes.
    """
    if stream not in ("cells", "points"):
        raise ReproError(
            f"stream must be 'cells' or 'points', got {stream!r}"
        )

    builds: list[_CellBuild] = []
    for instance in plan.instances:
        for solver in plan.solvers:
            builds.append(
                _compile_cell(
                    plan,
                    instance,
                    solver,
                    store=store,
                    cell_index=len(builds),
                )
            )

    # emission ids: contiguous, in plan order — cells index directly,
    # points offset by the grid sizes of the preceding cells
    offsets: list[int] = []
    acc = 0
    for build in builds:
        offsets.append(acc)
        acc += len(build.grid)

    nodes: list[GraphNode] = []
    node_map: dict[str, tuple[_CellBuild, int | None]] = {}
    for build in builds:
        for node, unique_pos in _compile_nodes(build, seed):
            nodes.append(node)
            node_map[node.name] = (build, unique_pos)

    collected: dict[int, dict[int, BatchOutcome]] = {
        build.cell_index: {} for build in builds
    }

    def _cell_done(build: _CellBuild) -> SweepCell:
        # fan the solved points back out to every original position
        cell = collected[build.cell_index]
        position = {t: i for i, t in enumerate(build.unique)}
        outcomes = tuple(
            replace(cell[position[t]], index=pos)
            for pos, t in enumerate(build.grid)
        )
        return SweepCell(
            instance_tag=build.instance.tag,
            solver=build.solver.name,
            thresholds=tuple(build.grid),
            outcomes=outcomes,
            unique_thresholds=len(build.unique),
            chained=build.chained,
        )

    def _events() -> "Iterator[tuple[int, SweepCell | SweepPoint]]":
        # cells with an empty grid are complete before the graph
        # runs (they contribute no point ids in points mode)
        for build in builds:
            if not build.tasks and stream == "cells":
                yield (build.cell_index, _cell_done(build))
        for name, outcome in iter_graph(
            nodes,
            workers=workers,
            seed=seed,
            policy=policy,
            store=store,
        ):
            build, unique_pos = node_map[name]
            if unique_pos is None:
                # one-pass node: sub-outcomes carry their position
                unique_pos = outcome.index
            collected[build.cell_index][unique_pos] = outcome
            if stream == "points":
                solved = build.unique[unique_pos]
                for pos, t in enumerate(build.grid):
                    if t == solved:
                        yield (
                            offsets[build.cell_index] + pos,
                            SweepPoint(
                                instance_tag=build.instance.tag,
                                solver=build.solver.name,
                                threshold=t,
                                index=pos,
                                outcome=replace(outcome, index=pos),
                            ),
                        )
            elif len(collected[build.cell_index]) == len(build.unique):
                yield (build.cell_index, _cell_done(build))

    if in_order:
        buffered: dict[int, Any] = {}
        next_emit = 0
        for item_id, item in _events():
            buffered[item_id] = item
            while next_emit in buffered:
                yield buffered.pop(next_emit)
                next_emit += 1
    else:
        for _, item in _events():
            yield item


def run_sweep(
    plan: SweepPlan,
    *,
    workers: int | None = None,
    seed: int | None = None,
    policy: BatchPolicy | None = None,
    store: ResultStore | None = None,
) -> SweepResult:
    """Execute a :class:`SweepPlan`, one cell per (instance, solver).

    The drained wrapper over :func:`iter_sweep`: the whole plan runs as
    one dependency-aware task graph (cells from different instances and
    solvers interleave across the pool; warm-start chains advance along
    dependency edges), and the completed cells are returned in plan
    order.  ``workers``/``seed``/``policy``/``store`` carry the exact
    :func:`~repro.engine.batch.run_batch` semantics (deterministic
    per-task seeding over the *deduplicated* grid, fault isolation,
    result reuse).
    """
    return SweepResult(
        cells=tuple(
            iter_sweep(
                plan,
                workers=workers,
                seed=seed,
                policy=policy,
                store=store,
                in_order=True,
                stream="cells",
            )
        )
    )
