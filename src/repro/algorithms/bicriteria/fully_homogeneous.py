"""Theorem 5 — bi-criteria optimisation on Fully Homogeneous platforms.

By Lemma 1 the optimum is a single interval replicated on a set of
processors; identical speeds mean only the *number* ``k`` of replicas and
(with heterogeneous failures, the paper's closing remark) *which* replicas
matter:

* **Algorithm 1** (minimise FP under a latency threshold ``L``): pick the
  maximum ``k`` such that ``k·delta_0/b + (sum w)/s + delta_n/b <= L`` and
  replicate on the ``k`` most reliable processors;
* **Algorithm 2** (minimise latency under an FP threshold): pick the
  minimum ``k`` such that the ``k`` most reliable processors satisfy
  ``1 - (1 - prod fp) <= FP`` and replicate on them.

Implementation note: rather than evaluating the paper's closed-form
``k = floor((b/delta_0)(L - delta_n/b - sum w / s))`` and risking
floating-point boundary misses, we scan ``k`` against the *actual* metric
functions (monotone in ``k``), with a small relative tolerance to absorb
round-off.  The closed form is exposed for the test-suite to check
agreement.
"""

from __future__ import annotations

import math

from ..result import SolverResult, threshold_bound
from ...core.application import PipelineApplication
from ...core.mapping import IntervalMapping
from ...core.metrics import failure_probability, latency
from ...core.platform import Platform
from ...exceptions import InfeasibleProblemError, SolverError

__all__ = [
    "algorithm1_minimize_fp",
    "algorithm2_minimize_latency",
    "closed_form_replication_bound",
]

#: Relative slack when comparing a metric against a user threshold, to
#: absorb floating-point round-off in sums of per-stage terms.
THRESHOLD_RTOL = 1e-9


def _within(value: float, threshold: float) -> bool:
    """``value <= threshold`` up to relative/absolute round-off slack."""
    return value <= threshold_bound(threshold, THRESHOLD_RTOL)


def _require_fully_homogeneous(platform: Platform) -> None:
    if not platform.is_fully_homogeneous:
        raise SolverError(
            "Algorithms 1-2 require a Fully Homogeneous platform; got "
            f"{platform.platform_class.value}"
        )


def closed_form_replication_bound(
    application: PipelineApplication, platform: Platform, latency_threshold: float
) -> int:
    """The paper's ``k = floor((b/delta_0)(L - delta_n/b - sum w/s))``.

    With ``delta_0 = 0`` the latency does not depend on ``k`` and the
    bound is ``m`` whenever the fixed part fits, else 0.  An infinite
    threshold gives ``m`` (``+inf``) or 0 (``-inf``).
    """
    _require_fully_homogeneous(platform)
    if math.isinf(latency_threshold):
        return platform.size if latency_threshold > 0 else 0
    b = platform.uniform_bandwidth
    s = platform.speeds[0]
    fixed = application.output_size / b + application.total_work / s
    budget = latency_threshold - fixed
    if application.input_size == 0:
        return platform.size if budget >= 0 else 0
    k = math.floor(
        budget * b / application.input_size
        + THRESHOLD_RTOL * max(1.0, abs(latency_threshold))
    )
    return max(0, min(platform.size, k))


def algorithm1_minimize_fp(
    application: PipelineApplication,
    platform: Platform,
    latency_threshold: float,
) -> SolverResult:
    """Paper Algorithm 1: minimise FP subject to ``latency <= L``.

    Finds the largest feasible replication degree and enrols the most
    reliable processors.  Optimal on Fully Homogeneous platforms even
    with heterogeneous failure probabilities (paper's remark after
    Theorem 5).

    Raises
    ------
    InfeasibleProblemError
        If even a single processor violates the latency threshold.
    """
    _require_fully_homogeneous(platform)
    by_reliability = platform.by_reliability_descending()
    n = application.num_stages

    best: SolverResult | None = None
    for k in range(1, platform.size + 1):
        procs = {p.index for p in by_reliability[:k]}
        mapping = IntervalMapping.single_interval(n, procs)
        lat = latency(mapping, application, platform)
        if not _within(lat, latency_threshold):
            break  # latency is non-decreasing in k: no larger k fits
        best = SolverResult(
            mapping=mapping,
            latency=lat,
            failure_probability=failure_probability(mapping, platform),
            solver="algorithm1-fully-hom",
            optimal=True,
            extras={"replication": k},
        )
    if best is None:
        raise InfeasibleProblemError(
            f"no single processor meets the latency threshold "
            f"{latency_threshold}"
        )
    return best


def algorithm2_minimize_latency(
    application: PipelineApplication,
    platform: Platform,
    fp_threshold: float,
) -> SolverResult:
    """Paper Algorithm 2: minimise latency subject to ``FP <= threshold``.

    Finds the smallest replication degree whose ``k`` most reliable
    processors meet the FP bound; latency is increasing in ``k`` on a
    Fully Homogeneous platform, so the smallest feasible ``k`` minimises
    it.

    Raises
    ------
    InfeasibleProblemError
        If replicating on *all* processors still exceeds the FP bound.
    """
    _require_fully_homogeneous(platform)
    by_reliability = platform.by_reliability_descending()
    n = application.num_stages

    for k in range(1, platform.size + 1):
        procs = {p.index for p in by_reliability[:k]}
        mapping = IntervalMapping.single_interval(n, procs)
        fp = failure_probability(mapping, platform)
        if _within(fp, fp_threshold):
            return SolverResult(
                mapping=mapping,
                latency=latency(mapping, application, platform),
                failure_probability=fp,
                solver="algorithm2-fully-hom",
                optimal=True,
                extras={"replication": k},
            )
    raise InfeasibleProblemError(
        f"even full replication misses the failure-probability threshold "
        f"{fp_threshold}"
    )
