"""Wire protocol for the solve service.

One dialect, version-stamped.  A request is a single JSON object
carrying the same versioned spec schema as
:meth:`repro.engine.sweeps.SweepPlan.from_spec`
(:data:`PROTOCOL_VERSION` *is* that schema version), extended with a
request ``kind``:

``solve``
    One solver invocation: ``solver`` (registry name) + ``instance``
    (a sweep-instance spec: a ``scenario`` reference or an inline
    ``application``/``platform``), optional ``threshold``, ``opts``,
    ``seed`` and ``include_mapping``.
``sweep``
    A whole grid: ``plan`` is a :class:`SweepPlan` spec dict.
``ping`` / ``stats`` / ``drain``
    Control requests answered immediately (never queued).

Every work request also accepts ``id`` (echoed on every response
event; the server assigns one when omitted), ``priority`` (higher
runs earlier; default 0) and ``policy``
(``{"retries": N, "timeout": S, "backoff": S}`` — a per-request
:class:`~repro.engine.policy.BatchPolicy`).

The response is a stream of JSON events, one object per line
(NDJSON), in completion order: ``accepted``, then one ``outcome`` per
grid point as it finishes, then a terminal ``done`` — or a terminal
``error`` event carrying a machine-readable ``code`` and a
``retriable`` flag (queue-full and draining rejections are retriable;
malformed requests are not).  Failed solves are *not* ``error``
events: they are ``outcome`` events with ``ok: false`` and the
structured :class:`~repro.engine.policy.ErrorKind` in ``error_kind``,
exactly like :class:`~repro.engine.batch.BatchOutcome`.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from ..core.serialization import mapping_to_dict
from ..engine.batch import BatchOutcome, _record_fields
from ..engine.policy import BatchPolicy, ErrorKind
from ..engine.sweeps import SPEC_SCHEMA_VERSION
from ..exceptions import ReproError

if TYPE_CHECKING:
    from ..algorithms.result import SolverResult

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "REQUEST_KINDS",
    "TERMINAL_EVENTS",
    "ServiceError",
    "validate_request",
    "policy_from_request",
    "policy_to_wire",
    "outcome_event",
    "stored_outcome_event",
    "done_event",
    "error_event",
    "encode_event",
    "decode_line",
    "iter_ndjson",
]

#: Version of the request dialect — the same number as the sweep-spec
#: ``schema`` field (:data:`~repro.engine.sweeps.SPEC_SCHEMA_VERSION`):
#: requests embed plan specs, so the two version together.
PROTOCOL_VERSION = SPEC_SCHEMA_VERSION

#: Per-line size cap for NDJSON transports (inline application/platform
#: specs are large; the asyncio default of 64 KiB is far too small).
MAX_LINE_BYTES = 16 * 1024 * 1024

REQUEST_KINDS = ("solve", "sweep", "ping", "stats", "drain")

#: Event types that end a response stream.
TERMINAL_EVENTS = frozenset({"done", "error", "pong", "stats", "draining"})


class ServiceError(ReproError):
    """A structured service failure.

    ``code`` is machine-readable (``bad-request``,
    ``unsupported-schema``, ``queue-full``, ``draining``,
    ``unavailable``, ``internal``); ``retriable`` tells clients whether
    resubmitting the identical request later can succeed.
    """

    def __init__(
        self,
        message: str,
        *,
        code: str = "internal",
        retriable: bool = False,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.retriable = retriable


_COMMON_KEYS = frozenset({"schema", "kind", "id", "priority", "policy"})
_KIND_KEYS: dict[str, frozenset[str]] = {
    "solve": _COMMON_KEYS
    | {"solver", "instance", "threshold", "opts", "seed", "include_mapping"},
    "sweep": _COMMON_KEYS | {"plan", "seed", "include_mapping"},
    "ping": _COMMON_KEYS,
    "stats": _COMMON_KEYS,
    "drain": _COMMON_KEYS,
}
_POLICY_KEYS = frozenset({"retries", "timeout", "backoff"})


def _bad(message: str, *, code: str = "bad-request") -> ServiceError:
    return ServiceError(message, code=code, retriable=False)


def _check_int(value: Any, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _bad(f"request {what} must be an integer, got {value!r}")
    return value


def validate_request(payload: Any) -> dict[str, Any]:
    """Validate one decoded request, returning a normalised copy.

    Raises :class:`ServiceError` (``code="bad-request"`` or
    ``"unsupported-schema"``) with a message naming the offending
    field, so clients can fix the request instead of guessing.
    """
    if not isinstance(payload, Mapping):
        raise _bad(
            f"request must be a JSON object, got {type(payload).__name__}"
        )
    kind = payload.get("kind")
    if kind not in REQUEST_KINDS:
        raise _bad(
            "request 'kind' must be one of "
            + ", ".join(REQUEST_KINDS)
            + f", got {kind!r}"
        )
    unknown = sorted(set(payload) - _KIND_KEYS[kind])
    if unknown:
        raise _bad(
            f"unknown request key(s) for kind {kind!r}: "
            + ", ".join(repr(k) for k in unknown)
        )

    schema = payload.get("schema")
    if schema is None and kind in ("solve", "sweep"):
        raise _bad(
            f"a {kind!r} request must carry a 'schema' version "
            f"(current: {PROTOCOL_VERSION})"
        )
    if schema is not None:
        _check_int(schema, "'schema'")
        if not 1 <= schema <= PROTOCOL_VERSION:
            raise ServiceError(
                f"request schema {schema} is not supported "
                f"(this server speaks schema 1..{PROTOCOL_VERSION})",
                code="unsupported-schema",
            )

    req = dict(payload)
    rid = req.get("id")
    if rid is not None and not isinstance(rid, str):
        raise _bad(f"request 'id' must be a string, got {rid!r}")
    req["priority"] = _check_int(req.get("priority", 0), "'priority'")

    policy = req.get("policy")
    if policy is not None:
        if not isinstance(policy, Mapping):
            raise _bad("request 'policy' must be an object")
        unknown = sorted(set(policy) - _POLICY_KEYS)
        if unknown:
            raise _bad(
                "unknown policy key(s): "
                + ", ".join(repr(k) for k in unknown)
                + " (accepted: "
                + ", ".join(sorted(_POLICY_KEYS))
                + ")"
            )

    if kind == "solve":
        solver = req.get("solver")
        if not isinstance(solver, str) or not solver:
            raise _bad("a 'solve' request needs a 'solver' registry name")
        if not isinstance(req.get("instance"), Mapping):
            raise _bad(
                "a 'solve' request needs an 'instance' object "
                "(scenario reference or inline application+platform)"
            )
        threshold = req.get("threshold")
        if threshold is not None and (
            isinstance(threshold, bool)
            or not isinstance(threshold, (int, float))
            or (isinstance(threshold, float) and math.isnan(threshold))
        ):
            raise _bad(
                f"request 'threshold' must be a number, got {threshold!r}"
            )
        opts = req.get("opts")
        if opts is not None and not isinstance(opts, Mapping):
            raise _bad("request 'opts' must be an object")
    elif kind == "sweep":
        if not isinstance(req.get("plan"), Mapping):
            raise _bad("a 'sweep' request needs a 'plan' spec object")
    if kind in ("solve", "sweep"):
        seed = req.get("seed")
        if seed is not None:
            _check_int(seed, "'seed'")
    return req


def policy_from_request(req: Mapping[str, Any]) -> BatchPolicy | None:
    """Build the per-request :class:`BatchPolicy` (None when absent)."""
    policy = req.get("policy")
    if policy is None:
        return None
    try:
        return BatchPolicy(
            retries=int(policy.get("retries", 0)),
            timeout=policy.get("timeout"),
            backoff=float(policy.get("backoff", 0.0)),
        )
    except (TypeError, ValueError) as exc:
        raise _bad(f"invalid request policy: {exc}") from None


def policy_to_wire(
    policy: "BatchPolicy | Mapping[str, Any] | None",
) -> dict[str, Any] | None:
    """Wire form of a policy (accepts an instance or a ready dict)."""
    if policy is None:
        return None
    if isinstance(policy, BatchPolicy):
        out: dict[str, Any] = {"retries": policy.retries}
        if policy.timeout is not None:
            out["timeout"] = policy.timeout
        if policy.backoff:
            out["backoff"] = policy.backoff
        return out
    return dict(policy)


# ----------------------------------------------------------------------
# response events
# ----------------------------------------------------------------------
def outcome_event(
    rid: str,
    outcome: BatchOutcome,
    *,
    instance: str | None = None,
    point_index: int | None = None,
    include_mapping: bool = False,
) -> dict[str, Any]:
    """One grid point's result as a wire event.

    Mirrors :class:`BatchOutcome`: a failed solve keeps ``ok: false``
    plus ``error``/``error_kind`` — it is a *result*, not a protocol
    error.
    """
    return _outcome_event(
        rid,
        index=outcome.index if point_index is None else point_index,
        tag=outcome.tag,
        solver=outcome.solver,
        threshold=outcome.task.threshold,
        cached=outcome.cached,
        instance=instance,
        include_mapping=include_mapping,
        result=outcome.result,
        error=outcome.error,
        error_kind=outcome.error_kind,
        attempts=outcome.attempts,
        elapsed=outcome.elapsed,
    )


def stored_outcome_event(
    rid: str,
    record: Mapping[str, Any],
    *,
    solver: str,
    threshold: float | None,
    tag: str,
    include_mapping: bool = False,
) -> dict[str, Any]:
    """A single solve's store record as a wire event.

    The event :func:`outcome_event` sends for the same record after a
    worker-side store hit, built without the instance a
    :class:`BatchOutcome` would have to carry.
    """
    return _outcome_event(
        rid,
        index=0,
        tag=tag,
        solver=solver,
        threshold=threshold,
        cached=True,
        instance=tag,
        include_mapping=include_mapping,
        **_record_fields(record),
    )


def _outcome_event(
    rid: str,
    *,
    index: int,
    tag: str,
    solver: str,
    threshold: float | None,
    cached: bool,
    instance: str | None,
    include_mapping: bool,
    result: "SolverResult | None",
    error: str | None,
    error_kind: ErrorKind | None,
    attempts: int,
    elapsed: float,
) -> dict[str, Any]:
    event: dict[str, Any] = {
        "event": "outcome",
        "id": rid,
        "index": index,
        "tag": tag,
        "solver": solver,
        "threshold": threshold,
        "ok": result is not None,
        "cached": cached,
        "attempts": attempts,
        "elapsed": elapsed,
    }
    if instance is not None:
        event["instance"] = instance
    if result is not None:
        event["latency"] = result.latency
        event["failure_probability"] = result.failure_probability
        event["optimal"] = result.optimal
        if include_mapping:
            event["mapping"] = mapping_to_dict(result.mapping)
    else:
        event["error"] = error
        event["error_kind"] = error_kind.value if error_kind else None
    return event


def done_event(
    rid: str,
    *,
    total: int,
    ok: int,
    failed: int,
    cached: int,
    elapsed: float,
    queue_wait: float,
) -> dict[str, Any]:
    """Terminal success event; ``total - cached`` solves ran fresh."""
    return {
        "event": "done",
        "id": rid,
        "total": total,
        "ok": ok,
        "failed": failed,
        "cached": cached,
        "solver_invocations": total - cached,
        "elapsed": elapsed,
        "queue_wait": queue_wait,
    }


def error_event(rid: str | None, exc: Exception) -> dict[str, Any]:
    """Terminal failure event from any exception."""
    if isinstance(exc, ServiceError):
        code, retriable = exc.code, exc.retriable
    else:
        code, retriable = "internal", False
    return {
        "event": "error",
        "id": rid,
        "code": code,
        "retriable": retriable,
        "message": str(exc),
    }


def encode_event(event: Mapping[str, Any]) -> bytes:
    """One NDJSON line (compact separators, trailing newline)."""
    return json.dumps(event, separators=(",", ":")).encode() + b"\n"


def decode_line(line: bytes) -> dict[str, Any]:
    """Decode one NDJSON line into an object, or raise ``bad-request``."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise _bad(f"invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise _bad(
            f"expected a JSON object, got {type(payload).__name__}"
        )
    return payload


def iter_ndjson(chunks: Iterable[bytes]) -> "Iterable[dict[str, Any]]":
    """Reassemble NDJSON objects from arbitrary byte chunks."""
    buffer = b""
    for chunk in chunks:
        buffer += chunk
        while b"\n" in buffer:
            line, buffer = buffer.split(b"\n", 1)
            if line.strip():
                yield decode_line(line)
    if buffer.strip():
        yield decode_line(buffer)
