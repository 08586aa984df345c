"""Shared machinery for the heuristics' bulk candidate-pool scoring.

Two heuristic solvers (the single-interval grid and local search) can
score whole candidate pools through
:class:`~repro.core.metrics_bulk.BulkEvaluator` when numpy is present —
but their *decisions* must stay bit-identical to the scalar path (same
accepted-move sequences, same final mapping under a fixed seed).
Greedy and annealing have no bulk path: each of their trials changes at
most two intervals, so they score it from cached interval terms
(:meth:`~repro.core.metrics.EvaluationCache.objectives_with`) instead.

The bulk values agree with the scalar ones only within
:data:`~repro.core.metrics_bulk.BULK_RELATIVE_TOLERANCE`, so decisions
are never taken on bulk numbers directly.  Instead the bulk scores act
as a **conservative prefilter**: a candidate is discarded only when its
bulk score proves — with :data:`PREFILTER_MARGIN` of slack, three
orders of magnitude wider than the documented bulk error — that the
scalar path would discard it too.  The few survivors are re-evaluated
through the exact scalar functions in the original candidate order, so
every accept/reject decision is made on scalar-exact numbers.  This is
the same "select in bulk, report in scalar" contract the exhaustive
solvers adopted in the vectorized sweep work, extended from one final
winner to every step of a search trajectory.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ...core.metrics_bulk import BulkEvaluator
from .neighborhood import Row

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

__all__ = [
    "PREFILTER_MARGIN",
    "margin",
    "value_margin",
    "score_rows",
]

#: Relative slack used when a bulk score is compared against a scalar
#: decision bound.  ~1000x the documented bulk/scalar tolerance: wide
#: enough that the prefilter can never veto a candidate the scalar path
#: would accept, narrow enough to discard almost everything.
PREFILTER_MARGIN = 1e-6

#: Absolute floor added to value-relative margins so comparisons around
#: zero (e.g. failure probabilities of near-perfect mappings) stay safe.
_ABSOLUTE_FLOOR = 1e-12


def margin(*scales: float) -> float:
    """A conservative comparison slack for the given value magnitudes."""
    scale = max((abs(s) for s in scales), default=0.0)
    return PREFILTER_MARGIN * max(scale, 1.0) + _ABSOLUTE_FLOOR


def value_margin(*scales: float) -> float:
    """Like :func:`margin` but relative to the values themselves.

    For quantities that can be legitimately tiny (failure probabilities,
    FP gains) a ``max(scale, 1.0)`` slack would drown the whole signal;
    this variant scales with the actual magnitude plus the absolute
    floor.
    """
    scale = max((abs(s) for s in scales), default=0.0)
    return PREFILTER_MARGIN * scale + _ABSOLUTE_FLOOR


def score_rows(
    evaluator: BulkEvaluator,
    num_stages: int,
    num_processors: int,
    rows: Sequence[Row],
) -> tuple["np.ndarray", "np.ndarray"]:
    """Bulk-score candidate rows: ``(latencies, failure_probabilities)``.

    Pads in plain Python and materialises each array in one
    ``np.array`` call — measurably faster on the descent hot path than
    routing every row through :meth:`BlockBuilder.append` (the builder
    stays the right tool for producers that do not hold all rows at
    once).
    """
    import numpy as np

    from ...core.metrics_bulk import MappingBlock

    width = max(len(ends) for ends, _ in rows)
    pad = [(0,) * w for w in range(width + 1)]
    block = MappingBlock(
        num_stages=num_stages,
        num_processors=num_processors,
        ends=np.array(
            [ends + pad[width - len(ends)] for ends, _ in rows],
            dtype=np.int64,
        ),
        masks=np.array(
            [masks + pad[width - len(masks)] for _, masks in rows],
            dtype=np.int64,
        ),
    )
    return evaluator.evaluate_block(block)
