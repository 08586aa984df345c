"""Theorem 6 — bi-criteria optimisation, Communication Homogeneous +
Failure Homogeneous platforms.

Lemma 1 still restricts the optimum to a single interval; with identical
failure probabilities only the replica *count* drives FP, and enrolling
the *fastest* processors keeps the compute term minimal:

* **Algorithm 3** (minimise FP under latency ``L``): processors sorted by
  non-increasing speed; take the maximum ``k`` with
  ``k·delta_0/b + (sum w)/s_(k) + delta_n/b <= L`` (``s_(k)`` = speed of
  the ``k``-th fastest = slowest enrolled);
* **Algorithm 4** (minimise latency under FP): the smallest ``k`` with
  ``fp^k <= FP`` (i.e. ``1 - (1 - fp^k) <= FP``), on the fastest ``k``.

Both are exact only under Failure Homogeneous: the paper's Section 3
(Figure 5) exhibits a Failure *Heterogeneous* instance where the optimum
needs two intervals, and Section 4.4 conjectures that case NP-hard — use
:mod:`repro.algorithms.bicriteria.exhaustive` or
:mod:`repro.algorithms.heuristics` there.
"""

from __future__ import annotations

from ..result import SolverResult
from .fully_homogeneous import _within
from ...core.application import PipelineApplication
from ...core.mapping import IntervalMapping
from ...core.metrics import failure_probability, latency
from ...core.platform import Platform
from ...exceptions import InfeasibleProblemError, SolverError

__all__ = [
    "algorithm3_minimize_fp",
    "algorithm4_minimize_latency",
    "minimal_replication_for_fp",
]


def _require_domain(platform: Platform) -> None:
    if not platform.is_communication_homogeneous:
        raise SolverError(
            "Algorithms 3-4 require a Communication Homogeneous platform; "
            f"got {platform.platform_class.value}"
        )
    if not platform.is_failure_homogeneous:
        raise SolverError(
            "Algorithms 3-4 require homogeneous failure probabilities "
            "(the Failure Heterogeneous case is the paper's open problem; "
            "use the exhaustive solver or the heuristics)"
        )


def algorithm3_minimize_fp(
    application: PipelineApplication,
    platform: Platform,
    latency_threshold: float,
) -> SolverResult:
    """Paper Algorithm 3: minimise FP s.t. ``latency <= L``.

    Enrols the fastest processors while the latency bound holds.  The
    latency of 'fastest ``k``' is non-decreasing in ``k`` (the
    communication term grows, the slowest-enrolled speed shrinks), so the
    scan stops at the first violation.

    Raises
    ------
    InfeasibleProblemError
        If even the single fastest processor violates the bound.
    """
    _require_domain(platform)
    by_speed = platform.by_speed_descending()
    n = application.num_stages

    best: SolverResult | None = None
    for k in range(1, platform.size + 1):
        procs = {p.index for p in by_speed[:k]}
        mapping = IntervalMapping.single_interval(n, procs)
        lat = latency(mapping, application, platform)
        if not _within(lat, latency_threshold):
            break
        best = SolverResult(
            mapping=mapping,
            latency=lat,
            failure_probability=failure_probability(mapping, platform),
            solver="algorithm3-comm-hom",
            optimal=True,
            extras={"replication": k, "slowest_enrolled": by_speed[k - 1].speed},
        )
    if best is None:
        raise InfeasibleProblemError(
            f"no single processor meets the latency threshold "
            f"{latency_threshold}"
        )
    return best


def minimal_replication_for_fp(platform: Platform, fp_threshold: float) -> int:
    """Smallest ``k`` with ``fp^k <= fp_threshold`` (Failure Homogeneous).

    Uses the closed form ``k = ceil(log(FP)/log(fp))`` guarded by a
    direct scan for the degenerate cases (``fp`` = 0 or 1, thresholds at
    the boundary).

    Raises
    ------
    InfeasibleProblemError
        If no ``k <= m`` satisfies the bound.
    """
    fp = platform.failure_probabilities[0]
    for k in range(1, platform.size + 1):
        if _within(fp**k, fp_threshold):
            return k
    raise InfeasibleProblemError(
        f"even k=m={platform.size} replicas miss the FP threshold "
        f"{fp_threshold} (fp={fp})"
    )


def algorithm4_minimize_latency(
    application: PipelineApplication,
    platform: Platform,
    fp_threshold: float,
) -> SolverResult:
    """Paper Algorithm 4: minimise latency s.t. ``FP <= threshold``.

    Computes the minimal feasible replication count and enrols the
    fastest processors; latency increases with ``k``, so the minimal
    count is optimal.

    Raises
    ------
    InfeasibleProblemError
        If full replication still violates the FP bound.
    """
    _require_domain(platform)
    k = minimal_replication_for_fp(platform, fp_threshold)
    by_speed = platform.by_speed_descending()
    procs = {p.index for p in by_speed[:k]}
    mapping = IntervalMapping.single_interval(application.num_stages, procs)
    return SolverResult(
        mapping=mapping,
        latency=latency(mapping, application, platform),
        failure_probability=failure_probability(mapping, platform),
        solver="algorithm4-comm-hom",
        optimal=True,
        extras={"replication": k},
    )
