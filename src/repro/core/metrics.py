"""Latency and failure-probability metrics (paper Section 2.2).

This module is the **single source of truth** for the paper's two
objective functions.  Every solver, test, bench and the discrete-event
simulator validate against these closed forms.

Failure probability
-------------------
``FP = 1 - prod_j (1 - prod_{u in alloc(j)} fp_u)`` — the application
fails iff *every* replica of *some* interval fails; processors fail
independently.

Latency, uniform links (paper eq. (1))
--------------------------------------
For Fully Homogeneous and Communication Homogeneous platforms with link
bandwidth ``b``::

    T = sum_j [ k_j * delta_{d_j - 1} / b + W_j / min_{u in alloc(j)} s_u ]
        + delta_n / b

The ``k_j`` factor is the worst case under the one-port model: the sends
into interval ``j``'s replicas are serialised, and the adversarial failure
pattern (the designated senders die first) forces all of them onto the
critical path.  Compute time is bounded by the slowest replica.  The final
output to ``P_out`` is a single send.

Latency, heterogeneous links (paper eq. (2))
--------------------------------------------
With ``alloc(p+1) = {out}``::

    T = sum_{u in alloc(1)} delta_0 / b_{in,u}
      + sum_j max_{u in alloc(j)} [ W_j / s_u
                                    + sum_{v in alloc(j+1)} delta_{e_j} / b_{u,v} ]

Equation (1) is exactly the specialisation of eq. (2) to uniform
bandwidths (we expose both and property-test the equality).

Ablation switch
---------------
Both formulas accept ``one_port=False``, replacing every serialised sum of
outgoing sends by the maximum single send (a hypothetical multi-port
platform).  This powers experiment E13 (how much does one-port
serialisation cost replication?).  It is *not* part of the paper's model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from .application import PipelineApplication
from .mapping import GeneralMapping, IntervalMapping
from .platform import Platform
from .topology import IN, OUT
from .validation import validate_mapping

__all__ = [
    "failure_probability",
    "interval_reliability",
    "latency",
    "latency_uniform",
    "latency_heterogeneous",
    "general_mapping_latency",
    "IntervalCost",
    "LatencyBreakdown",
    "latency_breakdown",
    "MappingEvaluation",
    "evaluate",
    "EvaluationCache",
]


# ----------------------------------------------------------------------
# failure probability
# ----------------------------------------------------------------------
def interval_reliability(platform: Platform, allocation: frozenset[int] | set[int]) -> float:
    """Probability ``1 - prod_{u in alloc} fp_u`` that an interval survives.

    An interval survives iff at least one of its replicas survives, i.e.
    unless *all* of them fail.  The product runs in ascending processor
    order, so equal allocation sets give bit-identical values however
    they were built.
    """
    prod = 1.0
    for u in sorted(allocation):
        prod *= platform.failure_probability(u)
    return 1.0 - prod


def failure_probability(
    mapping: IntervalMapping,
    platform: Platform,
    application: PipelineApplication | None = None,
) -> float:
    """Global failure probability ``FP`` of an interval mapping.

    ``application`` is optional and only used for validation (the formula
    does not depend on stage costs).

    Numerically stable evaluation: computing ``1 - prod_j (1 - p_j)``
    naively loses ~8 significant digits when the per-interval failure
    products ``p_j`` are tiny (e.g. the Theorem 7 gadgets, where
    ``p_j = exp(-S/2)``), so we accumulate ``sum_j log1p(-p_j)`` and
    return ``-expm1`` of it.  For a single interval this reproduces
    ``prod_u fp_u`` to full precision.  Each product runs in ascending
    processor order (as the bulk DP does), so mappings that compare
    equal score bit-identical FP.
    """
    if application is not None:
        validate_mapping(mapping, application, platform)
    log_success = 0.0
    for alloc in mapping.allocations:
        prod = 1.0
        for u in sorted(alloc):
            prod *= platform.failure_probability(u)
        if prod >= 1.0:
            return 1.0  # some interval fails almost surely
        log_success += math.log1p(-prod)
    return -math.expm1(log_success)


# ----------------------------------------------------------------------
# latency
# ----------------------------------------------------------------------
def latency_uniform(
    mapping: IntervalMapping,
    application: PipelineApplication,
    platform: Platform,
    *,
    one_port: bool = True,
) -> float:
    """Paper eq. (1): latency on a platform with uniform link bandwidth.

    Raises
    ------
    repro.exceptions.InvalidPlatformError
        If the platform's links are not uniform.
    """
    validate_mapping(mapping, application, platform)
    b = platform.uniform_bandwidth
    total = 0.0
    for iv, alloc in mapping.items():
        k_j = len(alloc) if one_port else 1
        delta_in = application.volume(iv.start - 1)
        slowest = min(platform.speed(u) for u in alloc)
        total += k_j * delta_in / b
        total += application.interval_work(iv.start, iv.end) / slowest
    total += application.output_size / b
    return total


def latency_heterogeneous(
    mapping: IntervalMapping,
    application: PipelineApplication,
    platform: Platform,
    *,
    one_port: bool = True,
) -> float:
    """Paper eq. (2): latency with per-link bandwidths.

    Valid on *any* platform; on uniform links it coincides with eq. (1)
    (machine-checked property).  ``alloc(p+1) = {out}`` per the paper.
    """
    validate_mapping(mapping, application, platform)
    topo = platform.topology

    # Serialized input sends from P_in to every replica of interval 1.
    first_alloc = mapping.allocations[0]
    delta0 = application.input_size
    input_terms = [topo.transfer_time(delta0, IN, u) for u in sorted(first_alloc)]
    total = sum(input_terms) if one_port else max(input_terms)

    p = mapping.num_intervals
    for j, (iv, alloc) in enumerate(mapping.items()):
        if j + 1 < p:
            next_targets: list[Any] = sorted(mapping.allocations[j + 1])
        else:
            next_targets = [OUT]
        delta_out = application.volume(iv.end)
        work = application.interval_work(iv.start, iv.end)
        worst = -math.inf
        for u in sorted(alloc):
            send_terms = [topo.transfer_time(delta_out, u, v) for v in next_targets]
            sends = sum(send_terms) if one_port else max(send_terms)
            worst = max(worst, work / platform.speed(u) + sends)
        total += worst
    return total


def latency(
    mapping: IntervalMapping | GeneralMapping,
    application: PipelineApplication,
    platform: Platform,
    *,
    one_port: bool = True,
) -> float:
    """Latency of a mapping, dispatching on mapping kind and platform class.

    * :class:`GeneralMapping` — Theorem 4 path cost (no replication);
    * :class:`IntervalMapping` on uniform links — paper eq. (1);
    * :class:`IntervalMapping` on heterogeneous links — paper eq. (2).
    """
    if isinstance(mapping, GeneralMapping):
        return general_mapping_latency(mapping, application, platform)
    if platform.is_communication_homogeneous:
        return latency_uniform(mapping, application, platform, one_port=one_port)
    return latency_heterogeneous(mapping, application, platform, one_port=one_port)


def general_mapping_latency(
    mapping: GeneralMapping,
    application: PipelineApplication,
    platform: Platform,
) -> float:
    """Latency of a general mapping (Theorem 4 objective).

    The cost of the path ``V_{0,in} -> V_{1,pi(1)} -> .. -> V_{n+1,out}``:
    input transfer, per-stage compute, inter-stage transfers only when the
    processor changes, final output transfer.  No replication is involved
    (replication can only increase latency — paper Section 4.1).
    """
    validate_mapping(mapping, application, platform)
    topo = platform.topology
    n = application.num_stages
    total = topo.transfer_time(application.input_size, IN, mapping.assignment[0])
    for k in range(1, n + 1):
        u = mapping.assignment[k - 1]
        total += application.work(k) / platform.speed(u)
        if k < n:
            v = mapping.assignment[k]
            total += topo.transfer_time(application.volume(k), u, v)
    total += topo.transfer_time(
        application.output_size, mapping.assignment[-1], OUT
    )
    return total


# ----------------------------------------------------------------------
# breakdowns and combined evaluation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class IntervalCost:
    """Per-interval latency contributions (reporting aid).

    For uniform platforms ``input_time`` is ``k_j * delta/b`` and
    ``output_time`` is folded into the next interval's ``input_time``
    (plus the final ``delta_n/b`` term, reported separately in
    :class:`LatencyBreakdown`).  For heterogeneous platforms the eq. (2)
    grouping is used: ``output_time`` carries the serialized sends of the
    interval's critical replica and ``input_time`` is zero except for the
    first interval.
    """

    interval_index: int
    replication: int
    input_time: float
    compute_time: float
    output_time: float

    @property
    def total(self) -> float:
        """Sum of the interval's contributions."""
        return self.input_time + self.compute_time + self.output_time


@dataclass(frozen=True)
class LatencyBreakdown:
    """Latency decomposed into per-interval costs plus the closing term."""

    intervals: tuple[IntervalCost, ...]
    final_output_time: float

    @property
    def total(self) -> float:
        """Total latency — equals :func:`latency` on the same inputs."""
        return sum(c.total for c in self.intervals) + self.final_output_time


def latency_breakdown(
    mapping: IntervalMapping,
    application: PipelineApplication,
    platform: Platform,
    *,
    one_port: bool = True,
) -> LatencyBreakdown:
    """Decompose :func:`latency` into per-interval contributions."""
    validate_mapping(mapping, application, platform)
    costs: list[IntervalCost] = []
    if platform.is_communication_homogeneous:
        b = platform.uniform_bandwidth
        for j, (iv, alloc) in enumerate(mapping.items(), start=1):
            k_j = len(alloc) if one_port else 1
            delta_in = application.volume(iv.start - 1)
            slowest = min(platform.speed(u) for u in alloc)
            costs.append(
                IntervalCost(
                    interval_index=j,
                    replication=len(alloc),
                    input_time=k_j * delta_in / b,
                    compute_time=application.interval_work(iv.start, iv.end)
                    / slowest,
                    output_time=0.0,
                )
            )
        final = application.output_size / b
        return LatencyBreakdown(tuple(costs), final)

    topo = platform.topology
    p = mapping.num_intervals
    first_alloc = sorted(mapping.allocations[0])
    in_terms = [
        topo.transfer_time(application.input_size, IN, u) for u in first_alloc
    ]
    first_input = sum(in_terms) if one_port else max(in_terms)
    for j, (iv, alloc) in enumerate(mapping.items()):
        next_targets: list[Any]
        if j + 1 < p:
            next_targets = sorted(mapping.allocations[j + 1])
        else:
            next_targets = [OUT]
        delta_out = application.volume(iv.end)
        work = application.interval_work(iv.start, iv.end)
        best_total = -math.inf
        best_pair = (0.0, 0.0)
        for u in sorted(alloc):
            send_terms = [
                topo.transfer_time(delta_out, u, v) for v in next_targets
            ]
            sends = sum(send_terms) if one_port else max(send_terms)
            comp = work / platform.speed(u)
            if comp + sends > best_total:
                best_total = comp + sends
                best_pair = (comp, sends)
        costs.append(
            IntervalCost(
                interval_index=j + 1,
                replication=len(alloc),
                input_time=first_input if j == 0 else 0.0,
                compute_time=best_pair[0],
                output_time=best_pair[1],
            )
        )
    return LatencyBreakdown(tuple(costs), 0.0)


@dataclass(frozen=True)
class MappingEvaluation:
    """Both objectives of a mapping, bundled for bi-criteria reasoning."""

    latency: float
    failure_probability: float
    mapping: Any = field(default=None, compare=False)

    def dominates(self, other: "MappingEvaluation") -> bool:
        """Weak Pareto dominance: no worse on both, strictly better on one."""
        no_worse = (
            self.latency <= other.latency
            and self.failure_probability <= other.failure_probability
        )
        strictly = (
            self.latency < other.latency
            or self.failure_probability < other.failure_probability
        )
        return no_worse and strictly


def evaluate(
    mapping: IntervalMapping,
    application: PipelineApplication,
    platform: Platform,
    *,
    one_port: bool = True,
) -> MappingEvaluation:
    """Evaluate both objectives of an interval mapping at once."""
    return MappingEvaluation(
        latency=latency(mapping, application, platform, one_port=one_port),
        failure_probability=failure_probability(mapping, platform),
        mapping=mapping,
    )


# ----------------------------------------------------------------------
# memoized evaluation
# ----------------------------------------------------------------------
class EvaluationCache:
    """Memoized evaluation of interval mappings on one fixed instance.

    Both objectives decompose into per-interval terms that depend only on
    a small key:

    * failure probability — each allocation set contributes
      ``log1p(-prod_u fp_u)`` independently of everything else;
    * latency, uniform links (eq. (1)) — interval ``j`` contributes
      ``k_j * delta_{d_j-1}/b + W_j / min s_u``, a function of
      ``(d_j, e_j, alloc_j)`` alone;
    * latency, heterogeneous links (eq. (2)) — interval ``j``'s term
      additionally depends on the *successor* allocation (the one-port
      sends target its replicas), so the key is
      ``(d_j, e_j, alloc_j, alloc_{j+1})``, plus one input term keyed by
      ``alloc_1``.

    Neighbouring mappings — consecutive states in exhaustive enumeration,
    or local-search / annealing moves — share almost all of their terms,
    so after a warm-up each evaluation is a handful of dictionary lookups
    instead of a full metric recomputation.  A move need not even be
    built: :meth:`objectives_with` and :meth:`failure_probability_with`
    score a mapping with one run of intervals replaced, looking up only
    the new intervals' terms.  Terms are accumulated in the exact order
    the plain functions use, so results are **bit-for-bit identical** to
    :func:`latency` / :func:`failure_probability` / :func:`evaluate` (a
    machine-checked property).

    The cache trusts its callers on compatibility (it performs the cheap
    stage-count / processor-index check of ``validate_mapping`` inline
    only when ``check=True``); mappings must come from the same
    ``(application, platform)`` the cache was built for.
    """

    def __init__(
        self,
        application: PipelineApplication,
        platform: Platform,
        *,
        one_port: bool = True,
        check: bool = False,
    ) -> None:
        self.application = application
        self.platform = platform
        self.one_port = one_port
        self.check = check
        self._uniform = platform.is_communication_homogeneous
        self._bandwidth = (
            platform.uniform_bandwidth if self._uniform else None
        )
        self._final_term = (
            application.output_size / self._bandwidth if self._uniform else 0.0
        )
        # interval work is re-derived as sum(works[a-1:b]) on every term
        # miss — prefix sums would be faster still but not bit-identical
        # to PipelineApplication.interval_work (float + is not associative)
        self._works = application.works
        self._volumes = application.volumes
        self._speeds = platform.speeds
        self._fps = platform.failure_probabilities
        self._topology = platform.topology
        # (start, end, alloc[, next_alloc]) -> (comm_term, comp_term) | worst
        self._lat_terms: dict = {}
        # alloc -> log1p(-prod fp) (``-inf`` when the interval surely fails)
        self._rel_terms: dict[frozenset[int], float] = {}
        # alloc_1 -> serialized input-send time (heterogeneous only)
        self._in_terms: dict[frozenset[int], float] = {}
        # (mapping, rel terms, their running sums, lat terms, their running
        # sums) of the last mapping objectives_with replaced intervals in
        self._base: tuple | None = None
        self.hits = 0
        self.misses = 0
        # optional per-lookup observer ``hook(term_kind, hit)`` with
        # term_kind in {"lat", "rel", "in"} — the run recorder plugs in
        # here (repro.engine.recorder); None keeps the hot path at one
        # falsy check per term
        self.event_hook: Callable[[str, bool], None] | None = None

    # ------------------------------------------------------------------
    @property
    def stats(self) -> dict[str, int]:
        """Cache effectiveness counters (term-level hits/misses)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._lat_terms)
            + len(self._rel_terms)
            + len(self._in_terms),
        }

    def _check_compatible(self, mapping: IntervalMapping) -> None:
        validate_mapping(mapping, self.application, self.platform)

    def _check_replacement(
        self,
        mapping: IntervalMapping,
        j: int,
        k: int,
        replacement: Sequence[tuple[tuple[int, int], frozenset[int]]],
    ) -> None:
        intervals = list(mapping.intervals)
        allocations = list(mapping.allocations)
        intervals[j : j + k] = [span for span, _ in replacement]
        allocations[j : j + k] = [alloc for _, alloc in replacement]
        self._check_compatible(IntervalMapping(intervals, allocations))

    # ------------------------------------------------------------------
    # failure probability
    # ------------------------------------------------------------------
    def _rel_term(self, alloc: frozenset[int]) -> float:
        term = self._rel_terms.get(alloc)
        if term is None:
            self.misses += 1
            prod = 1.0
            for u in sorted(alloc):
                prod *= self._fps[u - 1]
            term = math.log1p(-prod) if prod < 1.0 else -math.inf
            self._rel_terms[alloc] = term
            if self.event_hook is not None:
                self.event_hook("rel", False)
        else:
            self.hits += 1
            if self.event_hook is not None:
                self.event_hook("rel", True)
        return term

    def failure_probability(self, mapping: IntervalMapping) -> float:
        """Memoized :func:`failure_probability` (bit-identical result)."""
        if self.check:
            self._check_compatible(mapping)
        log_success = 0.0
        for alloc in mapping.allocations:
            term = self._rel_term(alloc)
            if term == -math.inf:
                return 1.0  # some interval fails almost surely
            log_success += term
        return -math.expm1(log_success)

    # ------------------------------------------------------------------
    # latency
    # ------------------------------------------------------------------
    def _uniform_term(
        self, start: int, end: int, alloc: frozenset[int]
    ) -> tuple[float, float]:
        key = (start, end, alloc)
        term = self._lat_terms.get(key)
        if term is None:
            self.misses += 1
            k_j = len(alloc) if self.one_port else 1
            slowest = min(self._speeds[u - 1] for u in alloc)
            term = (
                k_j * self._volumes[start - 1] / self._bandwidth,
                float(sum(self._works[start - 1 : end])) / slowest,
            )
            self._lat_terms[key] = term
            if self.event_hook is not None:
                self.event_hook("lat", False)
        else:
            self.hits += 1
            if self.event_hook is not None:
                self.event_hook("lat", True)
        return term

    def _input_term(self, alloc: frozenset[int]) -> float:
        term = self._in_terms.get(alloc)
        if term is None:
            self.misses += 1
            delta0 = self._volumes[0]
            sends = [
                self._topology.transfer_time(delta0, IN, u)
                for u in sorted(alloc)
            ]
            term = sum(sends) if self.one_port else max(sends)
            self._in_terms[alloc] = term
            if self.event_hook is not None:
                self.event_hook("in", False)
        else:
            self.hits += 1
            if self.event_hook is not None:
                self.event_hook("in", True)
        return term

    def _het_term(
        self,
        start: int,
        end: int,
        alloc: frozenset[int],
        next_alloc: frozenset[int] | None,
    ) -> float:
        key = (start, end, alloc, next_alloc)
        term = self._lat_terms.get(key)
        if term is None:
            self.misses += 1
            next_targets: list[Any] = (
                [OUT] if next_alloc is None else sorted(next_alloc)
            )
            delta_out = self._volumes[end]
            work = float(sum(self._works[start - 1 : end]))
            worst = -math.inf
            for u in sorted(alloc):
                send_terms = [
                    self._topology.transfer_time(delta_out, u, v)
                    for v in next_targets
                ]
                sends = sum(send_terms) if self.one_port else max(send_terms)
                worst = max(worst, work / self._speeds[u - 1] + sends)
            term = worst
            self._lat_terms[key] = term
            if self.event_hook is not None:
                self.event_hook("lat", False)
        else:
            self.hits += 1
            if self.event_hook is not None:
                self.event_hook("lat", True)
        return term

    def latency(self, mapping: IntervalMapping) -> float:
        """Memoized :func:`latency` (bit-identical result)."""
        if self.check:
            self._check_compatible(mapping)
        intervals = mapping.intervals
        allocations = mapping.allocations
        if self._uniform:
            total = 0.0
            for iv, alloc in zip(intervals, allocations):
                comm, comp = self._uniform_term(iv.start, iv.end, alloc)
                total += comm
                total += comp
            total += self._final_term
            return total
        total = self._input_term(allocations[0])
        p = len(intervals)
        for j in range(p):
            iv = intervals[j]
            next_alloc = allocations[j + 1] if j + 1 < p else None
            total += self._het_term(iv.start, iv.end, allocations[j], next_alloc)
        return total

    def evaluate(self, mapping: IntervalMapping) -> MappingEvaluation:
        """Memoized :func:`evaluate` (bit-identical result)."""
        return MappingEvaluation(
            latency=self.latency(mapping),
            failure_probability=self.failure_probability(mapping),
            mapping=mapping,
        )

    # ------------------------------------------------------------------
    # interval-run replacements
    # ------------------------------------------------------------------
    def _base_terms(self, mapping: IntervalMapping) -> tuple:
        """Per-interval terms of ``mapping`` and their running sums.

        ``rel_sums[k]`` / ``lat_sums[k]`` hold the objective folds over
        the terms before interval ``k`` (heterogeneous latency starts
        from the input term).  Kept as the base of
        :meth:`objectives_with` while it is passed the same mapping
        object, so scoring many replacements in one mapping looks its
        unchanged terms up once.
        """
        intervals = mapping.intervals
        allocations = mapping.allocations
        rel = [self._rel_term(alloc) for alloc in allocations]
        rel_sums = [0.0]
        for term in rel:
            rel_sums.append(rel_sums[-1] + term)
        if self._uniform:
            lat: list = [
                self._uniform_term(iv.start, iv.end, alloc)
                for iv, alloc in zip(intervals, allocations)
            ]
            lat_sums = [0.0]
            for comm, comp in lat:
                total = lat_sums[-1]
                total += comm
                total += comp
                lat_sums.append(total)
        else:
            p = len(intervals)
            lat = [
                self._het_term(
                    iv.start,
                    iv.end,
                    allocations[j],
                    allocations[j + 1] if j + 1 < p else None,
                )
                for j, iv in enumerate(intervals)
            ]
            lat_sums = [self._input_term(allocations[0])]
            for term in lat:
                lat_sums.append(lat_sums[-1] + term)
        base = (mapping, rel, rel_sums, lat, lat_sums)
        self._base = base
        return base

    def objectives_with(
        self,
        mapping: IntervalMapping,
        j: int,
        k: int,
        replacement: Sequence[tuple[tuple[int, int], frozenset[int]]],
    ) -> tuple[float, float]:
        """``(latency, failure probability)`` of ``mapping`` with its
        intervals ``j..j+k-1`` replaced by ``replacement``.

        ``replacement`` lists the new intervals in pipeline order as
        ``((start, end), allocation)`` pairs; they must cover exactly
        the stages of the replaced run, and their allocations must be
        disjoint from the kept intervals' (checked only when the cache
        was built with ``check=True``).  One enrolment is ``k = 1`` with
        one pair; every neighbourhood move
        (:class:`~repro.algorithms.heuristics.neighborhood.Neighborhood`)
        has ``k <= 2`` and at most two pairs.

        Only the new intervals' terms are looked up, plus the eq. (2)
        sends of interval ``j-1`` into the first new allocation, plus the
        input term when ``j == 0``.  The kept prefix comes from the folds
        of ``mapping``'s own terms, kept while consecutive calls pass the
        same mapping object, and the kept suffix is re-added term by term
        in the order :meth:`latency` and :meth:`failure_probability`
        use, so both values are bit-identical to evaluating the new
        mapping (a machine-checked property).

        The two folds share one loop over the new intervals on purpose:
        this is greedy's and annealing's hot path, and composing it from
        :meth:`failure_probability_with` and a latency half would pay a
        second base lookup and a second pass over the new intervals on
        every call.
        """
        if self.check:
            self._check_replacement(mapping, j, k, replacement)
        base = self._base
        if base is None or base[0] is not mapping:
            base = self._base_terms(mapping)
        _, rel, rel_sums, lat, lat_sums = base
        rest = j + k
        # an interval that surely fails contributes -inf, and
        # -expm1(-inf) is exactly the 1.0 failure_probability returns
        log_success = rel_sums[j]
        if self._uniform:
            total = lat_sums[j]
            for (start, end), alloc in replacement:
                log_success += self._rel_term(alloc)
                comm, comp = self._uniform_term(start, end, alloc)
                total += comm
                total += comp
            for comm, comp in lat[rest:]:
                total += comm
                total += comp
            total += self._final_term
        else:
            allocations = mapping.allocations
            (start, end), alloc = replacement[0]
            if j == 0:
                total = self._input_term(alloc)
            else:
                prev = mapping.intervals[j - 1]
                total = lat_sums[j - 1] + self._het_term(
                    prev.start, prev.end, allocations[j - 1], alloc
                )
            log_success += self._rel_term(alloc)
            # each new interval sends into the next one, the last into
            # the first kept interval (or to P_out)
            for (next_start, next_end), next_alloc in replacement[1:]:
                total += self._het_term(start, end, alloc, next_alloc)
                log_success += self._rel_term(next_alloc)
                start, end, alloc = next_start, next_end, next_alloc
            total += self._het_term(
                start, end, alloc, allocations[rest] if rest < len(rel) else None
            )
            for term in lat[rest:]:
                total += term
        for term in rel[rest:]:
            log_success += term
        return total, -math.expm1(log_success)

    def failure_probability_with(
        self,
        mapping: IntervalMapping,
        j: int,
        k: int,
        replacement: Sequence[tuple[tuple[int, int], frozenset[int]]],
    ) -> float:
        """The failure probability of :meth:`objectives_with`, alone.

        Same arguments, same base memo and the same fold: the kept
        prefix's running sum, then the new allocations' terms, then the
        kept suffix, so the value is bit-identical to
        ``objectives_with(...)[1]`` and to evaluating the new mapping.
        It looks up no latency term, which makes it about half the cost
        of :meth:`objectives_with` — local search uses it to reject the
        moves whose failure probability alone proves them no better.
        """
        if self.check:
            self._check_replacement(mapping, j, k, replacement)
        base = self._base
        if base is None or base[0] is not mapping:
            base = self._base_terms(mapping)
        rel, rel_sums = base[1], base[2]
        log_success = rel_sums[j]
        for _, alloc in replacement:
            log_success += self._rel_term(alloc)
        for term in rel[j + k :]:
            log_success += term
        return -math.expm1(log_success)
