"""Exact branch-and-bound for the bi-criteria problem (uniform links).

The plain exhaustive solver enumerates *every* interval mapping; this
solver explores the same space as a depth-first search over
``(next stage, remaining processors)`` with two admissible prunes:

* **latency bound** — the cheapest possible completion of the remaining
  stages is a single unreplicated interval on the fastest remaining
  processor; if even that exceeds the budget, cut;
* **reliability bound** — every future interval's reliability is at most
  ``1 - prod_{u in remaining} fp_u`` (its replica set is a subset of the
  remaining processors), so the success probability of any completion is
  bounded; if the implied FP already exceeds the incumbent, cut.

The incumbent is seeded from the single-interval grid
(:mod:`repro.algorithms.heuristics.single_interval`), which is strong on
Communication Homogeneous platforms, so pruning bites immediately.

Domain: platforms with uniform links (eq. (1) is per-interval additive;
on Fully Heterogeneous platforms eq. (2) couples adjacent intervals and
the state space no longer decomposes — use the exhaustive solver there).
Exactness is guaranteed (and machine-checked against the exhaustive
solver); only the running time improves, typically by 1-2 orders of
magnitude (bench E17).
"""

from __future__ import annotations

import math

from ..result import SolverResult, threshold_bound
from ...core.application import PipelineApplication
from ...core.mapping import IntervalMapping, StageInterval
from ...core.metrics import failure_probability, latency
from ...core.metrics_bulk import HAS_NUMPY, build_mask_tables
from ...core.platform import Platform
from ...exceptions import InfeasibleProblemError, SolverError

__all__ = [
    "branch_and_bound_minimize_fp",
    "branch_and_bound_minimize_latency",
]

_PROCESSOR_CAP = 20

#: Per-bitmask bounding tables are built for up to this many processors
#: (``2^m`` float entries each); above it the per-call loops are used.
_TABLE_CAP = 16


class _Searcher:
    """Shared DFS machinery for both threshold queries."""

    def __init__(
        self,
        application: PipelineApplication,
        platform: Platform,
        *,
        use_tables: bool = True,
    ) -> None:
        if not platform.is_communication_homogeneous:
            raise SolverError(
                "branch and bound requires uniform links (eq. (1) "
                "additivity); use the exhaustive solver on Fully "
                "Heterogeneous platforms"
            )
        if platform.size > _PROCESSOR_CAP:
            raise SolverError(
                f"branch and bound capped at m <= {_PROCESSOR_CAP} "
                f"processors (bitmask state), got {platform.size}"
            )
        self.app = application
        self.plat = platform
        self.n = application.num_stages
        self.m = platform.size
        self.b = platform.uniform_bandwidth
        self.speeds = platform.speeds
        self.fps = platform.failure_probabilities
        self.volumes = application.volumes
        prefix = [0.0]
        for k in range(1, self.n + 1):
            prefix.append(prefix[-1] + application.work(k))
        self.work_prefix = prefix
        self.out_term = application.output_size / self.b
        self.explored = 0
        self._pop: list[int] | None = None
        self._min_speed: list[float] | None = None
        self._max_speed: list[float] | None = None
        self._fp_prod: list[float] | None = None
        if use_tables and HAS_NUMPY and self.m <= _TABLE_CAP:
            self._build_tables()

    def _build_tables(self) -> None:
        """Vectorized bounding tables over all ``2^m`` processor masks.

        Every per-mask quantity the DFS bounds need — replica count,
        slowest/fastest member speed, failure product — comes from the
        shared :func:`repro.core.metrics_bulk.build_mask_tables` numpy
        dynamic program, dumped to plain lists so the DFS pays a single
        O(1) index per bound instead of an O(m) bit loop.  The fold
        order matches the scalar loops exactly (ascending processor
        index), so the DFS explores the identical tree and returns
        bit-identical incumbents — only faster.
        """
        pop, min_speed, max_speed, fp_prod = build_mask_tables(
            self.speeds, self.fps
        )
        self._pop = pop.tolist()
        self._min_speed = min_speed.tolist()
        self._max_speed = max_speed.tolist()
        self._fp_prod = fp_prod.tolist()

    # -- per-interval contributions (eq. (1)) ---------------------------
    def interval_latency(self, d: int, e: int, mask: int) -> float:
        work = self.work_prefix[e] - self.work_prefix[d - 1]
        if self._pop is not None:
            return (
                self._pop[mask] * self.volumes[d - 1] / self.b
                + work / self._min_speed[mask]
            )
        k = mask.bit_count()
        delta_in = self.volumes[d - 1]
        slowest = min(
            self.speeds[u] for u in range(self.m) if mask >> u & 1
        )
        return k * delta_in / self.b + work / slowest

    def interval_reliability(self, mask: int) -> float:
        if self._fp_prod is not None:
            return 1.0 - self._fp_prod[mask]
        prod = 1.0
        for u in range(self.m):
            if mask >> u & 1:
                prod *= self.fps[u]
        return 1.0 - prod

    # -- admissible optimistic completions ------------------------------
    def best_future_latency(self, d: int, remaining: int) -> float:
        """Cheapest completion of stages d..n: one interval, k=1, the
        fastest remaining processor."""
        if self._max_speed is not None:
            fastest = self._max_speed[remaining]
        else:
            fastest = max(
                self.speeds[u] for u in range(self.m) if remaining >> u & 1
            )
        work = self.work_prefix[self.n] - self.work_prefix[d - 1]
        return self.volumes[d - 1] / self.b + work / fastest

    def best_future_reliability(self, remaining: int) -> float:
        """Upper bound on the product of future interval reliabilities."""
        if self._fp_prod is not None:
            return 1.0 - self._fp_prod[remaining]
        prod = 1.0
        for u in range(self.m):
            if remaining >> u & 1:
                prod *= self.fps[u]
        return 1.0 - prod

    @staticmethod
    def submasks(mask: int):
        """All non-empty submasks of ``mask`` (classic descent)."""
        sub = mask
        while sub:
            yield sub
            sub = (sub - 1) & mask

    def mask_to_mapping(
        self, plan: list[tuple[int, int, int]]
    ) -> IntervalMapping:
        return IntervalMapping(
            [StageInterval(d, e) for d, e, _ in plan],
            [
                {u + 1 for u in range(self.m) if mask >> u & 1}
                for _, _, mask in plan
            ],
        )


def branch_and_bound_minimize_fp(
    application: PipelineApplication,
    platform: Platform,
    latency_threshold: float,
    *,
    tolerance: float = 1e-9,
    use_tables: bool = True,
) -> SolverResult:
    """Exact 'minimise FP subject to latency <= L' by pruned DFS.

    Provably equivalent to :func:`exhaustive_minimize_fp` on uniform-link
    platforms, typically orders of magnitude faster.

    Raises
    ------
    InfeasibleProblemError
        If no interval mapping satisfies the latency threshold.
    SolverError
        On Fully Heterogeneous platforms or very large processor counts.
    """
    s = _Searcher(application, platform, use_tables=use_tables)
    budget = threshold_bound(latency_threshold, tolerance) - s.out_term

    best_fp = math.inf
    best_plan: list[tuple[int, int, int]] | None = None

    # incumbent from the single-interval grid
    from ..heuristics.single_interval import single_interval_minimize_fp

    try:
        seed = single_interval_minimize_fp(
            application, platform, latency_threshold, tolerance=tolerance
        )
        best_fp = seed.failure_probability
        best_plan = [
            (
                1,
                s.n,
                sum(1 << (u - 1) for u in seed.mapping.allocations[0]),
            )
        ]
    except InfeasibleProblemError:
        pass

    full_mask = (1 << s.m) - 1
    plan: list[tuple[int, int, int]] = []

    def dfs(d: int, remaining: int, lat: float, success: float) -> None:
        nonlocal best_fp, best_plan
        s.explored += 1
        if d > s.n:
            fp = 1.0 - success
            if fp < best_fp - 1e-15:
                best_fp = fp
                best_plan = list(plan)
            return
        if not remaining:
            return
        # latency prune
        if lat + s.best_future_latency(d, remaining) > budget:
            return
        # reliability prune: at least one future interval exists
        optimistic = 1.0 - success * s.best_future_reliability(remaining)
        if optimistic >= best_fp - 1e-15:
            return
        for e in range(s.n, d - 1, -1):  # long intervals first
            needs_more = e < s.n  # later intervals need >= 1 processor
            for alloc in s.submasks(remaining):
                if needs_more and alloc == remaining:
                    continue
                new_lat = lat + s.interval_latency(d, e, alloc)
                if new_lat > budget:
                    continue
                plan.append((d, e, alloc))
                dfs(
                    e + 1,
                    remaining & ~alloc,
                    new_lat,
                    success * s.interval_reliability(alloc),
                )
                plan.pop()

    dfs(1, full_mask, 0.0, 1.0)

    if best_plan is None:
        raise InfeasibleProblemError(
            f"no interval mapping meets the latency threshold "
            f"{latency_threshold}"
        )
    mapping = s.mask_to_mapping(best_plan)
    return SolverResult(
        mapping=mapping,
        latency=latency(mapping, application, platform),
        failure_probability=failure_probability(mapping, platform),
        solver="branch-and-bound-min-fp",
        optimal=True,
        extras={"explored": s.explored},
    )


def branch_and_bound_minimize_latency(
    application: PipelineApplication,
    platform: Platform,
    fp_threshold: float,
    *,
    tolerance: float = 1e-9,
    use_tables: bool = True,
) -> SolverResult:
    """Exact 'minimise latency subject to FP <= threshold' by pruned DFS.

    Mirrors :func:`branch_and_bound_minimize_fp` with the roles of the
    criteria exchanged: the DFS minimises accumulated latency, pruning on
    (a) the incumbent latency and (b) the best achievable success
    probability of any completion.
    """
    s = _Searcher(application, platform, use_tables=use_tables)
    required_success = 1.0 - threshold_bound(fp_threshold, tolerance)

    best_lat = math.inf
    best_plan: list[tuple[int, int, int]] | None = None

    from ..heuristics.single_interval import single_interval_minimize_latency

    try:
        seed = single_interval_minimize_latency(
            application, platform, fp_threshold, tolerance=tolerance
        )
        best_lat = seed.latency
        best_plan = [
            (
                1,
                s.n,
                sum(1 << (u - 1) for u in seed.mapping.allocations[0]),
            )
        ]
    except InfeasibleProblemError:
        pass

    full_mask = (1 << s.m) - 1
    plan: list[tuple[int, int, int]] = []

    def dfs(d: int, remaining: int, lat: float, success: float) -> None:
        nonlocal best_lat, best_plan
        s.explored += 1
        if d > s.n:
            total = lat + s.out_term
            if success >= required_success and total < best_lat - 1e-15:
                best_lat = total
                best_plan = list(plan)
            return
        if not remaining:
            return
        if lat + s.best_future_latency(d, remaining) + s.out_term >= best_lat:
            return
        if success * s.best_future_reliability(remaining) < required_success:
            return
        for e in range(s.n, d - 1, -1):
            needs_more = e < s.n
            for alloc in s.submasks(remaining):
                if needs_more and alloc == remaining:
                    continue
                new_lat = lat + s.interval_latency(d, e, alloc)
                if new_lat + s.out_term >= best_lat:
                    continue
                plan.append((d, e, alloc))
                dfs(
                    e + 1,
                    remaining & ~alloc,
                    new_lat,
                    success * s.interval_reliability(alloc),
                )
                plan.pop()

    dfs(1, full_mask, 0.0, 1.0)

    if best_plan is None:
        raise InfeasibleProblemError(
            f"no interval mapping meets the FP threshold {fp_threshold}"
        )
    mapping = s.mask_to_mapping(best_plan)
    return SolverResult(
        mapping=mapping,
        latency=latency(mapping, application, platform),
        failure_probability=failure_probability(mapping, platform),
        solver="branch-and-bound-min-latency",
        optimal=True,
        extras={"explored": s.explored},
    )
