"""The wire protocol: request decoding, canonical serialization."""

import json

import pytest

from repro.engine import ExperimentEngine, request_key
from repro.ir import function_to_text
from repro.machine import machine_with
from repro.remat import RenumberMode
from repro.serve import (ProtocolError, RETRYABLE_KINDS, dumps,
                         request_from_json, summary_to_json)
from repro.serve.protocol import (check_envelope, decode_line,
                                  encode_line, envelope_meta,
                                  error_response, failure_to_json)

from ..helpers import single_loop

LOOP_TEXT = function_to_text(single_loop())


class TestEnvelope:
    def test_round_trip(self):
        obj = {"v": 1, "id": "r1", "op": "ping"}
        assert decode_line(encode_line(obj)) == obj
        assert check_envelope(obj) == ("r1", "ping")

    def test_rejects_bad_json(self):
        with pytest.raises(ProtocolError) as exc:
            decode_line(b"{nope")
        assert exc.value.kind == "bad_request"

    def test_rejects_wrong_version(self):
        with pytest.raises(ProtocolError):
            check_envelope({"v": 99, "op": "ping"})

    def test_rejects_unknown_op(self):
        with pytest.raises(ProtocolError):
            check_envelope({"v": 1, "op": "explode"})

    def test_v2_envelopes_accepted_alongside_v1(self):
        assert check_envelope({"v": 2, "id": "r", "op": "ping"}) \
            == ("r", "ping")


class TestV2Extras:
    def test_meta_defaults_off_for_v1_envelopes(self):
        assert envelope_meta({"v": 1, "id": "r", "op": "ping"}) \
            == (None, None)

    def test_meta_extracts_client_and_deadline(self):
        client, deadline_s = envelope_meta(
            {"v": 2, "op": "allocate", "client": "tenant-a",
             "deadline_s": 3})
        assert client == "tenant-a"
        assert deadline_s == 3.0 and isinstance(deadline_s, float)

    @pytest.mark.parametrize("extras", [
        {"client": 7},
        {"deadline_s": "soon"},
        {"deadline_s": True},
    ])
    def test_meta_rejects_malformed_values(self, extras):
        with pytest.raises(ProtocolError) as exc:
            envelope_meta({"v": 2, "op": "ping", **extras})
        assert exc.value.kind == "bad_request"

    def test_error_response_carries_rounded_retry_after(self):
        body = error_response("r", "overload", "busy",
                              retry_after=0.123456)
        assert body["error"]["retry_after"] == 0.1235
        plain = error_response("r", "failed", "no")
        assert "retry_after" not in plain["error"]

    def test_retryable_kinds_are_the_transient_ones(self):
        assert RETRYABLE_KINDS == {"overload", "draining",
                                   "unavailable"}

    def test_expired_failures_get_their_own_kind(self):
        from repro.engine import ExperimentFailure

        request = request_from_json({"ir_text": LOOP_TEXT,
                                     "int_regs": 4})
        failure = ExperimentFailure(
            key="k", request=request,
            error_class="DeadlineExpired", message="too late",
            attempts=0, worker_fate="expired")
        assert failure_to_json(failure)["kind"] == "expired"
        poisoned = ExperimentFailure(
            key="k", request=request, error_class="RuntimeError",
            message="boom", attempts=2, worker_fate="crashed")
        assert failure_to_json(poisoned)["kind"] == "failed"


class TestRequestFromJson:
    def test_inline_ir(self):
        req = request_from_json({"ir_text": LOOP_TEXT, "int_regs": 4,
                                 "args": [3]})
        assert req.machine.int_regs == 4
        assert req.machine.float_regs == 4
        assert req.mode is RenumberMode.REMAT
        assert req.args == (3,)

    def test_kernel_supplies_ir_and_default_args(self):
        from repro.benchsuite import KERNELS_BY_NAME

        req = request_from_json({"kernel": "zeroin", "int_regs": 8,
                                 "mode": "chaitin"})
        kernel = KERNELS_BY_NAME["zeroin"]
        assert req.ir_text == function_to_text(kernel.compile())
        assert req.args == tuple(kernel.args)
        assert req.mode is RenumberMode.CHAITIN

    def test_key_matches_local_construction(self):
        """The wire form keys identically to a locally-built request —
        the foundation of server-side dedup and cache sharing."""
        from repro.engine import ExperimentRequest

        spec = {"ir_text": LOOP_TEXT, "int_regs": 4, "args": [1]}
        local = ExperimentRequest(ir_text=LOOP_TEXT,
                                  machine=machine_with(4, 4), args=(1,))
        assert request_key(request_from_json(spec)) == request_key(local)

    @pytest.mark.parametrize("spec,fragment", [
        ({}, "ir_text/kernel"),
        ({"ir_text": "x", "kernel": "zeroin"}, "ir_text/kernel"),
        ({"kernel": "no-such-kernel"}, "unknown kernel"),
        ({"ir_text": LOOP_TEXT, "mode": "psychic"}, "unknown mode"),
        ({"ir_text": LOOP_TEXT, "int_regs": 0}, "positive"),
        ({"ir_text": LOOP_TEXT, "int_regs": "four"}, "positive"),
        ({"ir_text": LOOP_TEXT, "run": "yes"}, "boolean"),
        ({"ir_text": LOOP_TEXT, "args": "3"}, "array"),
        ({"ir_text": LOOP_TEXT, "repeats": 5}, "unknown request field"),
        ({"ir_text": LOOP_TEXT, "allocator": "linear-scan"},
         "unknown allocator"),
        ({"ir_text": LOOP_TEXT, "scheme": "no-such"}, "unknown scheme"),
        ({"ir_text": LOOP_TEXT, "scheme": ["at-phis"]}, "unknown scheme"),
    ])
    def test_rejections(self, spec, fragment):
        with pytest.raises(ProtocolError) as exc:
            request_from_json(spec)
        assert exc.value.kind == "bad_request"
        assert fragment in exc.value.message

    def test_allocator_field(self):
        req = request_from_json({"ir_text": LOOP_TEXT, "int_regs": 4,
                                 "allocator": "ssa"})
        assert req.allocator == "ssa"
        # omitted -> the default strategy, keyed identically to a
        # locally-built request that never mentions the axis
        default = request_from_json({"ir_text": LOOP_TEXT, "int_regs": 4})
        assert default.allocator == "iterated"
        assert request_key(default) != request_key(req)


class TestSummaryJson:
    def test_deterministic_and_canonical(self):
        engine = ExperimentEngine(jobs=1, use_cache=False)
        spec = {"ir_text": LOOP_TEXT, "int_regs": 4, "args": [2]}
        req = request_from_json(spec)
        first = dumps(summary_to_json(engine.run(req)))
        again = dumps(summary_to_json(
            ExperimentEngine(jobs=1, use_cache=False).run(req)))
        assert first == again
        # canonical form: sorted keys, no whitespace
        assert first == json.dumps(json.loads(first), sort_keys=True,
                                   separators=(",", ":"))

    def test_carries_the_engine_answer(self):
        engine = ExperimentEngine(jobs=1, use_cache=False)
        req = request_from_json({"ir_text": LOOP_TEXT, "int_regs": 4,
                                 "args": [2]})
        summary = engine.run(req)
        body = summary_to_json(summary)
        assert body["key"] == request_key(req)
        assert body["mode"] == "remat"
        assert body["counts"] is not None
        assert body["steps"] == summary.steps
        assert "timing" not in body
