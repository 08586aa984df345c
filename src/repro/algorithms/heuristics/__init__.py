"""Heuristics for the NP-hard / open bi-criteria cases.

Theorem 7 (Fully Heterogeneous) and the Section 4.4 conjecture
(Communication Homogeneous + Failure Heterogeneous) preclude exact
polynomial algorithms, so this subpackage provides:

* :mod:`~repro.algorithms.heuristics.single_interval` — exact restriction
  to single-interval mappings (the Lemma 1 shape) — the natural baseline
  that the paper's Figure 5 shows can be arbitrarily beaten;
* :mod:`~repro.algorithms.heuristics.greedy` — constructive
  split-and-replicate;
* :mod:`~repro.algorithms.heuristics.local_search` — multi-restart
  hill climbing over a rich move set;
* :mod:`~repro.algorithms.heuristics.annealing` — simulated annealing on
  the same moves.

Single-interval and local search accept a ``use_bulk`` knob
(automatic when numpy is present): candidate pools are then generated
in boundary/bitmask row form
(:func:`~repro.algorithms.heuristics.neighborhood.neighbor_rows`) and
scored through :class:`~repro.core.metrics_bulk.BulkEvaluator`, with
decisions still taken on scalar-exact values — results are bit-identical
to the scalar path under a fixed seed (see
:mod:`~repro.algorithms.heuristics.bulk`).  Greedy and annealing have no
bulk path and need no numpy: a greedy enrolment trial or an annealing
proposal changes at most two intervals, so each is scored from the
cached interval terms of
:meth:`~repro.core.metrics.EvaluationCache.objectives_with`, which beats
bulk scoring at every measured shape.  Annealing draws its proposals by
index from :class:`~repro.algorithms.heuristics.neighborhood.Neighborhood`
and builds a mapping object only for accepted moves.
"""

from .annealing import AnnealingSchedule, anneal_minimize_fp, anneal_minimize_latency
from .greedy import balanced_partition, greedy_minimize_fp, greedy_minimize_latency
from .local_search import local_search_minimize_fp, local_search_minimize_latency
from .neighborhood import (
    Neighborhood,
    neighbor_rows,
    neighbors,
    random_mapping,
    random_neighbor,
    row_mapping,
)
from .single_interval import (
    single_interval_candidates,
    single_interval_mappings,
    single_interval_minimize_fp,
    single_interval_minimize_latency,
    single_interval_replica_sets,
)

__all__ = [
    "single_interval_candidates",
    "single_interval_mappings",
    "single_interval_replica_sets",
    "single_interval_minimize_fp",
    "single_interval_minimize_latency",
    "greedy_minimize_fp",
    "greedy_minimize_latency",
    "balanced_partition",
    "local_search_minimize_fp",
    "local_search_minimize_latency",
    "anneal_minimize_fp",
    "anneal_minimize_latency",
    "AnnealingSchedule",
    "Neighborhood",
    "neighbors",
    "neighbor_rows",
    "row_mapping",
    "random_neighbor",
    "random_mapping",
]
