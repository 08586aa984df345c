"""Parallel solver engine: registry, streaming batches, result store.

This subsystem turns the paper's individual algorithms into a batched,
parallel, fault-isolated solving service:

* :mod:`repro.engine.registry` — every exact solver and heuristic under
  a uniform ``solve(name, application, platform, threshold=None,
  **opts)`` interface with capability metadata (platform-class domain,
  exact vs heuristic, objective, seededness, version);
* :mod:`repro.engine.batch` — shard many instances, or many threshold
  queries over one instance, across ``multiprocessing`` workers with
  deterministic seeding; :func:`iter_batch` streams outcomes as tasks
  finish, :func:`run_batch` drains the stream into an ordered list, and
  :func:`iter_graph` / :func:`run_graph` execute dependency-aware task
  graphs (tasks dispatch as their ``depends_on`` edges resolve);
* :mod:`repro.engine.policy` — per-task timeout/retry policies and the
  structured :class:`ErrorKind` failure taxonomy (a crashing task is a
  failed outcome, never an aborted batch);
* :mod:`repro.engine.store` — persistent result store (JSON or SQLite)
  keyed by a canonical instance hash, so repeated experiment grids
  reuse prior solves instead of recomputing them, with LRU record caps
  (``max_records``/``prune``);
* :mod:`repro.engine.sweeps` — the unified sweep engine: declarative
  :class:`SweepPlan`\\ s (instances × solvers × threshold grids, JSON
  spec round-trip, scenario-generator references) compiled to one task
  graph and executed with duplicate dedup and warm-start chaining for
  the heuristics; :func:`iter_sweep` streams finished cells (or
  per-point outcomes) as they complete, :func:`run_sweep` drains the
  stream;
* :mod:`repro.engine.recorder` / :mod:`repro.engine.replay` —
  deterministic record/replay: :func:`record_run` captures a solver run
  as an append-only event log persisted in the store, and
  :func:`replay_run` / :func:`diff_runs` re-execute and halt at the
  first divergence with structured diagnostics.

The supported entry points are re-exported by :mod:`repro.api`;
package-level access to the facade-covered names here warns.

Quickstart::

    from repro import api
    from repro.workloads.synthetic import random_application, random_platform

    app = random_application(4, seed=0)
    plat = random_platform(4, "comm-homogeneous", seed=1)

    result = api.solve("local-search-min-fp", app, plat, threshold=30.0)

    # stream a sweep with fault isolation, retries and a warm store
    store = api.open_store("results.sqlite")
    policy = api.BatchPolicy(retries=1, timeout=30.0)
    for outcome in api.iter_batch(
        [api.BatchTask("greedy-min-fp", app, plat, threshold=t)
         for t in (10, 20, 30, 40)],
        workers=4, policy=policy, store=store,
    ):
        print(outcome.tag, outcome.ok, outcome.error_kind)
"""

import importlib
import warnings

from .batch import GraphNode, iter_graph, run_graph
from .policy import TaskTimeoutError
from .recorder import RunRecorder, recording_key
from .registry import register, unregister
from .replay import (
    DEFAULT_IGNORE,
    Divergence,
    FieldDiff,
    ReplayStatus,
)
from .store import (
    JSONStore,
    MemoryStore,
    SQLiteStore,
    ThreadSafeStore,
    instance_key,
)
from .sweeps import SPEC_SCHEMA_VERSION

#: facade-covered names: importable from here for compatibility, but the
#: supported path is ``repro.api`` — package-level access warns.  Deep
#: module paths (``repro.engine.registry.solve``, ...) stay warning-free.
_FACADE_COVERED = {
    "Objective": "registry",
    "SolverSpec": "registry",
    "get_solver": "registry",
    "solver_names": "registry",
    "solver_specs": "registry",
    "solve": "registry",
    "BatchTask": "batch",
    "BatchOutcome": "batch",
    "iter_batch": "batch",
    "run_batch": "batch",
    "threshold_sweep": "batch",
    "BatchPolicy": "policy",
    "ErrorKind": "policy",
    "ResultStore": "store",
    "StoreStats": "store",
    "open_store": "store",
    "SweepInstance": "sweeps",
    "SweepSolver": "sweeps",
    "SweepPlan": "sweeps",
    "SweepCell": "sweeps",
    "SweepResult": "sweeps",
    "SweepPoint": "sweeps",
    "run_sweep": "sweeps",
    "iter_sweep": "sweeps",
    "RunRecording": "recorder",
    "record_run": "recorder",
    "ReplayReport": "replay",
    "diff_runs": "replay",
    "replay_run": "replay",
}


def __getattr__(name: str):
    try:
        submodule = _FACADE_COVERED[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    warnings.warn(
        f"importing {name!r} from 'repro.engine' is deprecated; "
        f"use 'repro.api.{name}' (the stable facade)",
        DeprecationWarning,
        stacklevel=2,
    )
    return getattr(importlib.import_module(f".{submodule}", __name__), name)

__all__ = [
    "Objective",
    "SolverSpec",
    "register",
    "unregister",
    "get_solver",
    "solver_names",
    "solver_specs",
    "solve",
    "BatchTask",
    "BatchOutcome",
    "iter_batch",
    "run_batch",
    "threshold_sweep",
    "GraphNode",
    "iter_graph",
    "run_graph",
    "BatchPolicy",
    "ErrorKind",
    "TaskTimeoutError",
    "ResultStore",
    "MemoryStore",
    "JSONStore",
    "SQLiteStore",
    "ThreadSafeStore",
    "StoreStats",
    "instance_key",
    "open_store",
    "SPEC_SCHEMA_VERSION",
    "SweepInstance",
    "SweepSolver",
    "SweepPlan",
    "SweepCell",
    "SweepResult",
    "SweepPoint",
    "run_sweep",
    "iter_sweep",
    "RunRecorder",
    "RunRecording",
    "record_run",
    "recording_key",
    "ReplayStatus",
    "ReplayReport",
    "Divergence",
    "FieldDiff",
    "DEFAULT_IGNORE",
    "diff_runs",
    "replay_run",
]
