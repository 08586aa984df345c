"""Wire protocol: request validation, events, NDJSON framing."""

import json

import pytest

from repro.engine.batch import (
    BatchOutcome,
    BatchTask,
    _outcome_from_record,
    _outcome_to_record,
)
from repro.engine.policy import BatchPolicy, ErrorKind
from repro.engine.sweeps import SPEC_SCHEMA_VERSION
from repro.service.protocol import (
    PROTOCOL_VERSION,
    TERMINAL_EVENTS,
    ServiceError,
    decode_line,
    done_event,
    encode_event,
    error_event,
    iter_ndjson,
    outcome_event,
    policy_from_request,
    policy_to_wire,
    stored_outcome_event,
    validate_request,
)

from tests.helpers import make_instance


def solve_request(**overrides):
    base = {
        "schema": PROTOCOL_VERSION,
        "kind": "solve",
        "solver": "greedy-min-fp",
        "instance": {"scenario": "edge-hub-cloud", "seed": 1},
        "threshold": 30.0,
    }
    base.update(overrides)
    return base


def sweep_request(**overrides):
    base = {
        "schema": PROTOCOL_VERSION,
        "kind": "sweep",
        "plan": {
            "instances": [{"scenario": "edge-hub-cloud", "seed": 1}],
            "solvers": ["greedy-min-fp"],
            "thresholds": [30.0],
        },
    }
    base.update(overrides)
    return base


class TestValidateRequest:
    def test_version_matches_spec_schema(self):
        assert PROTOCOL_VERSION == SPEC_SCHEMA_VERSION

    def test_accepts_valid_solve(self):
        req = validate_request(solve_request())
        assert req["kind"] == "solve"
        assert req["priority"] == 0  # defaulted

    def test_accepts_valid_sweep(self):
        assert validate_request(sweep_request())["kind"] == "sweep"

    @pytest.mark.parametrize("kind", ["ping", "stats", "drain"])
    def test_control_kinds_need_no_schema(self, kind):
        assert validate_request({"kind": kind})["kind"] == kind

    def test_rejects_non_object(self):
        with pytest.raises(ServiceError, match="JSON object"):
            validate_request([1, 2])

    def test_rejects_unknown_kind(self):
        with pytest.raises(ServiceError, match="'frobnicate'"):
            validate_request({"kind": "frobnicate"})

    def test_rejects_unknown_key_by_name(self):
        with pytest.raises(ServiceError, match="'bogus'"):
            validate_request(solve_request(bogus=1))
        with pytest.raises(ServiceError) as err:
            validate_request(sweep_request(warmstart="chain"))
        assert "'warmstart'" in str(err.value)
        assert err.value.code == "bad-request"
        assert not err.value.retriable

    def test_work_requests_require_schema(self):
        request = solve_request()
        del request["schema"]
        with pytest.raises(ServiceError, match="schema"):
            validate_request(request)

    @pytest.mark.parametrize("schema", [True, "1", 1.5])
    def test_rejects_non_integer_schema(self, schema):
        with pytest.raises(ServiceError, match="integer"):
            validate_request(solve_request(schema=schema))

    @pytest.mark.parametrize("schema", [0, PROTOCOL_VERSION + 1, -3])
    def test_rejects_out_of_range_schema(self, schema):
        with pytest.raises(ServiceError) as err:
            validate_request(solve_request(schema=schema))
        assert err.value.code == "unsupported-schema"

    def test_rejects_bad_id(self):
        with pytest.raises(ServiceError, match="'id'"):
            validate_request(solve_request(id=7))

    @pytest.mark.parametrize("priority", [True, 1.5, "high"])
    def test_rejects_bad_priority(self, priority):
        with pytest.raises(ServiceError, match="priority"):
            validate_request(solve_request(priority=priority))

    def test_rejects_unknown_policy_key(self):
        with pytest.raises(ServiceError, match="'retrys'"):
            validate_request(solve_request(policy={"retrys": 3}))

    def test_solve_requires_solver_and_instance(self):
        request = solve_request()
        del request["solver"]
        with pytest.raises(ServiceError, match="solver"):
            validate_request(request)
        with pytest.raises(ServiceError, match="instance"):
            validate_request(solve_request(instance="nope"))

    def test_rejects_bad_threshold(self):
        with pytest.raises(ServiceError, match="threshold"):
            validate_request(solve_request(threshold=True))
        # json.loads accepts the NaN literal; a NaN bound would be
        # ignored by every solver comparison
        line = json.dumps(solve_request(threshold=float("nan"))).encode()
        with pytest.raises(ServiceError, match="threshold") as info:
            validate_request(decode_line(line))
        assert info.value.code == "bad-request"

    def test_accepts_infinite_threshold(self):
        for bound in (float("inf"), float("-inf")):
            assert validate_request(solve_request(threshold=bound))[
                "threshold"
            ] == bound

    def test_sweep_requires_plan_object(self):
        with pytest.raises(ServiceError, match="plan"):
            validate_request(sweep_request(plan="plan.json"))

    def test_rejects_bad_seed(self):
        with pytest.raises(ServiceError, match="seed"):
            validate_request(sweep_request(seed="0"))


class TestPolicy:
    def test_absent_policy_is_none(self):
        assert policy_from_request(solve_request()) is None

    def test_builds_batch_policy(self):
        policy = policy_from_request(
            solve_request(
                policy={"retries": 2, "timeout": 5.0, "backoff": 0.1}
            )
        )
        assert policy == BatchPolicy(retries=2, timeout=5.0, backoff=0.1)

    def test_invalid_policy_values_raise_bad_request(self):
        with pytest.raises(ServiceError) as err:
            policy_from_request(solve_request(policy={"retries": -1}))
        assert err.value.code == "bad-request"

    def test_policy_to_wire_round_trip(self):
        policy = BatchPolicy(retries=2, timeout=5.0, backoff=0.1)
        wire = policy_to_wire(policy)
        assert policy_from_request({"policy": wire}) == policy

    def test_policy_to_wire_passthrough(self):
        assert policy_to_wire(None) is None
        assert policy_to_wire({"retries": 1}) == {"retries": 1}


def _make_outcome(ok=True):
    from repro.engine.registry import solve

    app, plat = make_instance("comm-homogeneous", 3, 3, seed=5)
    task = BatchTask(
        "greedy-min-fp", app, plat, threshold=50.0, tag="t"
    )
    if ok:
        result = solve("greedy-min-fp", app, plat, threshold=50.0)
        return BatchOutcome(
            index=0, solver=task.solver, tag="t", result=result,
            error=None, elapsed=0.1, task=task,
        )
    return BatchOutcome(
        index=0, solver=task.solver, tag="t", result=None,
        error="RuntimeError: boom", elapsed=0.1, task=task,
        error_kind=ErrorKind.CRASH, attempts=2,
    )


class TestEvents:
    def test_outcome_event_success(self):
        event = outcome_event("r1", _make_outcome(), instance="inst")
        assert event["event"] == "outcome"
        assert event["id"] == "r1"
        assert event["ok"] is True
        assert event["instance"] == "inst"
        assert event["threshold"] == 50.0
        assert "latency" in event and "failure_probability" in event
        assert "mapping" not in event
        assert "error" not in event

    def test_outcome_event_mapping_opt_in(self):
        event = outcome_event("r1", _make_outcome(), include_mapping=True)
        assert event["mapping"]["kind"] == "interval-mapping"

    def test_outcome_event_failure_keeps_error_kind(self):
        event = outcome_event("r1", _make_outcome(ok=False))
        assert event["ok"] is False
        assert event["error_kind"] == "crash"
        assert event["attempts"] == 2
        assert "latency" not in event

    def test_outcome_event_point_index_overrides(self):
        event = outcome_event("r1", _make_outcome(), point_index=7)
        assert event["index"] == 7

    @pytest.mark.parametrize("ok", [True, False])
    def test_stored_outcome_event_matches_a_store_hit(self, ok):
        """The loop renders a record exactly as a worker-side hit does."""
        outcome = _make_outcome(ok=ok)
        record = json.loads(json.dumps(_outcome_to_record(outcome)))
        hit = _outcome_from_record(record, 0, outcome.task)
        for include_mapping in (False, True):
            assert stored_outcome_event(
                "r1",
                record,
                solver="greedy-min-fp",
                threshold=50.0,
                tag="t",
                include_mapping=include_mapping,
            ) == outcome_event(
                "r1", hit, instance="t", include_mapping=include_mapping
            )

    def test_done_event_counts_invocations(self):
        event = done_event(
            "r1", total=5, ok=4, failed=1, cached=3,
            elapsed=0.5, queue_wait=0.01,
        )
        assert event["solver_invocations"] == 2
        assert event["event"] == "done"

    def test_error_event_structured(self):
        event = error_event(
            "r1",
            ServiceError("full", code="queue-full", retriable=True),
        )
        assert event == {
            "event": "error",
            "id": "r1",
            "code": "queue-full",
            "retriable": True,
            "message": "full",
        }

    def test_error_event_generic_exception(self):
        event = error_event(None, ValueError("boom"))
        assert event["code"] == "internal"
        assert event["retriable"] is False

    def test_terminal_events_cover_all_reply_kinds(self):
        assert {"done", "error", "pong", "stats", "draining"} <= (
            TERMINAL_EVENTS
        )


class TestFraming:
    def test_encode_decode_round_trip(self):
        event = {"event": "done", "id": "x", "total": 3}
        line = encode_event(event)
        assert line.endswith(b"\n")
        assert decode_line(line) == event

    def test_decode_rejects_garbage(self):
        with pytest.raises(ServiceError, match="invalid JSON"):
            decode_line(b"{nope")
        with pytest.raises(ServiceError, match="object"):
            decode_line(b"[1,2]")

    def test_iter_ndjson_reassembles_split_chunks(self):
        events = [{"i": n} for n in range(5)]
        payload = b"".join(encode_event(e) for e in events)
        # 3-byte chunks split lines mid-object
        chunks = [payload[i:i + 3] for i in range(0, len(payload), 3)]
        assert list(iter_ndjson(chunks)) == events

    def test_iter_ndjson_handles_missing_trailing_newline(self):
        raw = encode_event({"a": 1}) + json.dumps({"b": 2}).encode()
        assert list(iter_ndjson([raw])) == [{"a": 1}, {"b": 2}]
