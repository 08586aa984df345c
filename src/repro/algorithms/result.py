"""Common result record returned by every solver in :mod:`repro.algorithms`."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..core.mapping import GeneralMapping, IntervalMapping

__all__ = ["SolverResult", "threshold_bound"]


@dataclass(frozen=True)
class SolverResult:
    """Outcome of a mapping solver.

    Attributes
    ----------
    mapping:
        The mapping found (interval or general).
    latency:
        Its latency under the appropriate paper formula.
    failure_probability:
        Its global failure probability (``nan`` for general mappings,
        which model the no-replication latency relaxation of Theorem 4
        where reliability is out of scope).
    solver:
        Identifier of the algorithm that produced the result.
    optimal:
        True when the algorithm guarantees optimality on the instance
        class it was invoked on (e.g. Algorithms 1-4 on their platform
        classes, exhaustive search everywhere).
    extras:
        Solver-specific diagnostics (nodes explored, candidate counts,
        certificate details, ...).
    """

    mapping: IntervalMapping | GeneralMapping
    latency: float
    failure_probability: float
    solver: str
    optimal: bool = False
    extras: Mapping[str, Any] = field(default_factory=dict)

    @property
    def objectives(self) -> tuple[float, float]:
        """``(latency, failure_probability)`` pair."""
        return (self.latency, self.failure_probability)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SolverResult[{self.solver}] latency={self.latency:.6g} "
            f"FP={self.failure_probability:.6g} mapping={self.mapping}"
        )


def threshold_bound(threshold: float, tolerance: float) -> float:
    """The largest objective value a solver accepts under ``threshold``.

    ``threshold + tolerance * max(1.0, abs(threshold))``: a relative
    slack that absorbs round-off in sums of per-stage terms.  An
    infinite threshold is its own bound, because its slack would be
    infinite too and ``-inf + inf`` is NaN, which every comparison
    rejects silently.
    """
    if math.isinf(threshold):
        return threshold
    return threshold + tolerance * max(1.0, abs(threshold))
