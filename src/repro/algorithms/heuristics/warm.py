"""Warm-start plumbing shared by the heuristic solvers.

Every heuristic accepts ``warm_starts`` — candidate mappings the caller
believes are good (typically the accepted mapping at the previous point
of a threshold sweep; see :mod:`repro.engine.sweeps`).  Warm starts may
cross process and store boundaries, so they are accepted in two forms:

* live :class:`~repro.core.mapping.IntervalMapping` objects, or
* their serialised dicts (:func:`repro.core.serialization.mapping_to_dict`),
  which is what the sweep engine puts into batch-task options — the form
  is JSON-canonicalisable, so warm-started solves get honest persistent-
  store keys (a different seed mapping is a different query).

The contract every solver honours: the returned result is **never worse
(in the solver's own rank order) than the best supplied warm start**
evaluated at the current threshold.  The solvers achieve this by
treating each warm start as a fully-considered candidate (a descent
start, an annealing ``consider`` state, a greedy comparison candidate)
— improvement steps are monotone, so the guarantee is structural, not
empirical.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from ...core.application import PipelineApplication
from ...core.mapping import IntervalMapping
from ...core.platform import Platform
from ...core.validation import validate_mapping
from ...exceptions import SolverError

__all__ = ["WarmStarts", "decode_warm_starts"]

#: Accepted ``warm_starts`` argument shape.
WarmStarts = Sequence["IntervalMapping | Mapping[str, Any]"]


def decode_warm_starts(
    warm_starts: WarmStarts | None,
    application: PipelineApplication,
    platform: Platform,
) -> list[IntervalMapping]:
    """Normalise a ``warm_starts`` argument to interval mappings that fit
    the instance.

    Solvers call this before any other work, so a bad warm start is a
    deterministic input error rather than a crash halfway through.

    Raises
    ------
    repro.exceptions.SolverError
        When an entry is neither an interval mapping nor a serialised
        interval-mapping dict (general mappings have no replica sets and
        cannot seed the interval heuristics).
    repro.exceptions.InvalidMappingError
        When a warm start does not cover the application's stages or
        names a processor the platform lacks.
    """
    if not warm_starts:
        return []
    from ...core.serialization import mapping_from_dict

    decoded: list[IntervalMapping] = []
    for entry in warm_starts:
        if isinstance(entry, IntervalMapping):
            mapping = entry
        elif isinstance(entry, Mapping):
            mapping = mapping_from_dict(entry)
            if not isinstance(mapping, IntervalMapping):
                raise SolverError(
                    "warm starts must be interval mappings, got "
                    f"{type(mapping).__name__}"
                )
        else:
            raise SolverError(
                "warm starts must be IntervalMapping objects or serialised "
                f"mapping dicts, got {type(entry).__name__}"
            )
        validate_mapping(mapping, application, platform)
        decoded.append(mapping)
    return decoded
