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

No heuristic needs numpy.  Single-interval evaluates its small grid
through the plain metric functions.  Every greedy enrolment trial,
annealing proposal and local-search move changes at most two intervals,
so each is scored from the cached interval terms of
:meth:`~repro.core.metrics.EvaluationCache.objectives_with`.  Annealing
and local search address their moves by index in
:class:`~repro.algorithms.heuristics.neighborhood.Neighborhood` and
build a mapping object only for the moves they accept; local search
first rejects, on the move's failure probability alone
(:meth:`~repro.core.metrics.EvaluationCache.failure_probability_with`),
the moves its lexicographic rank proves no better.
"""

from .annealing import AnnealingSchedule, anneal_minimize_fp, anneal_minimize_latency
from .greedy import balanced_partition, greedy_minimize_fp, greedy_minimize_latency
from .local_search import local_search_minimize_fp, local_search_minimize_latency
from .neighborhood import Neighborhood, neighbors, random_mapping, random_neighbor
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
    "random_neighbor",
    "random_mapping",
]
