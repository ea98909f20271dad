"""The allocation server's wire protocol: JSONL over one TCP stream.

Every message — request and response — is a single JSON object on its
own line.  Requests carry an **envelope** identifying the protocol
version, a client-chosen correlation id, and an operation::

    {"v": 1, "id": "r1", "op": "allocate", "request": {...}}

Operations:

* ``allocate`` — one allocation experiment; the ``request`` object maps
  onto :class:`~repro.engine.request.ExperimentRequest` (see
  :func:`request_from_json`), and the result is the JSON form of the
  engine's :class:`~repro.engine.request.AllocationSummary`
  (:func:`summary_to_json`).
* ``trace``    — allocate with the tracer attached and return the full
  JSONL trace document as text (``{"trace_text": ...}``), exactly what
  ``repro trace --format jsonl`` prints for the same inputs.
* ``ping``     — liveness probe.
* ``metrics``  — the server's observability snapshot (``serve.*``
  admission counters and request/phase latency histograms with
  p50/p90/p99, ``pool.*`` warm-pool accounting, ``engine.*``
  provenance and fault counters).
* ``debug``    — the flight recorder's dump: the N slowest and the
  most recent failed requests, each with its access record and fully
  stitched span tree (see :mod:`repro.serve.observe`).
* ``shutdown`` — begin a drain: stop admitting, finish what is queued.

Responses echo the id and carry either a result or a typed error::

    {"id": "r1", "ok": true,  "result": {...}}
    {"id": "r1", "ok": false, "error": {"kind": "overload", ...}}

Error kinds: ``bad_request`` (malformed envelope or request),
``overload`` (admission queue full or the client over its admission
rate — back off and retry), ``draining`` (server is shutting down),
``failed`` (the supervisor quarantined the request; the error carries
the attempt forensics), ``expired`` (the request's end-to-end deadline
passed before it could be executed), ``unavailable`` (no server could
be reached: the kind :class:`~repro.serve.client.ResilientClient`
raises when its transport retries run out; no server sends it),
``internal``.  :data:`RETRYABLE_KINDS` classifies them:
``overload``/``draining``/``unavailable`` are safe to retry
(allocation requests are idempotent — content-hashed and cached);
``bad_request``/``failed``/``expired``/``internal`` are not.

**Protocol v2** adds three optional envelope/response fields (v1
envelopes remain accepted — the new fields simply default off):

* ``client`` — a stable client identity string; the server's
  fair-admission token buckets meter ``allocate``/``trace`` traffic
  per ``client`` so one greedy client cannot starve the rest
  (requests without one are not metered).
* ``deadline_s`` — the requester's *remaining* end-to-end budget in
  seconds (relative, because wall clocks don't cross processes).  A
  retrying client re-stamps it with what is left; the server drops
  work whose deadline already passed and answers ``expired`` instead
  of executing dead requests.
* ``retry_after`` — on ``overload``/``draining`` errors, a server
  hint (seconds) for when to retry; the resilient client honours it.

**Byte identity.**  All server-side serialization goes through
:func:`dumps` — ``sort_keys`` plus minimal separators — and
:func:`summary_to_json` is deterministic field-by-field, so a response
body is byte-for-byte identical to serializing the summary returned by
a local :meth:`ExperimentEngine.run_many
<repro.engine.engine.ExperimentEngine.run_many>` for the same request.
Wall-clock ``timing`` is deliberately *not* part of the protocol (it is
never cached and never identical across runs); summaries are shipped
through :meth:`~repro.engine.request.AllocationSummary.without_timing`.
"""

from __future__ import annotations

import json
from typing import Any

from ..engine import AllocationSummary, ExperimentFailure, ExperimentRequest
from ..machine import machine_with
from ..regalloc import ALLOCATOR_NAMES
from ..regalloc.splitting import SCHEMES
from ..remat import RenumberMode

#: bump when the envelope or an operation's shape changes incompatibly
PROTOCOL_VERSION = 2

#: envelope versions this server still accepts (v2 only *adds*
#: optional fields, so v1 clients keep working unchanged)
ACCEPTED_VERSIONS = (1, 2)

#: operations a client may put in the envelope
OPERATIONS = ("allocate", "trace", "ping", "metrics", "debug",
              "shutdown")

#: error kinds a client may safely retry (the work is idempotent);
#: everything else is a definitive answer
RETRYABLE_KINDS = frozenset({"overload", "draining", "unavailable"})

#: every typed error kind of the protocol; a server answers with all
#: but ``unavailable``, which only the resilient client raises
ERROR_KINDS = ("bad_request", "overload", "draining", "failed",
               "expired", "unavailable", "internal")

#: ``request`` fields accepted by :func:`request_from_json`
REQUEST_FIELDS = frozenset({
    "ir_text", "kernel", "int_regs", "float_regs", "mode", "allocator",
    "optimize_first", "biased", "lookahead", "coalesce_splits",
    "optimistic", "scheme", "args", "run", "cacheable",
})


class ProtocolError(ValueError):
    """A malformed message; ``kind``/``message`` feed the error reply."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind
        self.message = message


def dumps(obj: Any) -> str:
    """The canonical serialization every server reply uses (stable key
    order, no whitespace) — the basis of the byte-identity guarantee."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def encode_line(obj: Any) -> bytes:
    return dumps(obj).encode() + b"\n"


def decode_line(line: bytes) -> dict:
    try:
        obj = json.loads(line)
    except ValueError as exc:
        raise ProtocolError("bad_request", f"invalid JSON: {exc}")
    if not isinstance(obj, dict):
        raise ProtocolError("bad_request", "message must be a JSON object")
    return obj


def check_envelope(obj: dict) -> tuple[Any, str]:
    """Validate a request envelope; returns ``(id, op)``."""
    version = obj.get("v")
    if version not in ACCEPTED_VERSIONS:
        raise ProtocolError(
            "bad_request",
            f"unsupported protocol version {version!r} "
            f"(this server speaks v{PROTOCOL_VERSION})")
    op = obj.get("op")
    if op not in OPERATIONS:
        raise ProtocolError(
            "bad_request",
            f"unknown op {op!r} (one of {', '.join(OPERATIONS)})")
    return obj.get("id"), op


def envelope_meta(obj: dict) -> tuple[str | None, float | None]:
    """The v2 envelope extras: ``(client identity, deadline_s)``.

    Both are optional; a v1 envelope simply has neither.  Raises
    :class:`ProtocolError` on malformed values.
    """
    client = obj.get("client")
    if client is not None and not isinstance(client, str):
        raise ProtocolError("bad_request", "client must be a string")
    deadline_s = obj.get("deadline_s")
    if deadline_s is not None:
        if not isinstance(deadline_s, (int, float)) \
                or isinstance(deadline_s, bool):
            raise ProtocolError("bad_request",
                                "deadline_s must be a number of seconds")
        deadline_s = float(deadline_s)
    return client, deadline_s


def request_from_json(spec: Any) -> ExperimentRequest:
    """Build the engine request described by a client's ``request``
    object; raises :class:`ProtocolError` on anything malformed.

    The function comes either inline (``ir_text``, canonical ILOC) or
    by benchmark-suite name (``kernel`` — which also supplies default
    interpreter ``args``).  ``repeats`` is deliberately not accepted:
    the server never measures wall-clock timing.
    """
    if not isinstance(spec, dict):
        raise ProtocolError("bad_request", "request must be a JSON object")
    unknown = sorted(set(spec) - REQUEST_FIELDS)
    if unknown:
        raise ProtocolError("bad_request",
                            f"unknown request field(s): {', '.join(unknown)}")

    kernel_name = spec.get("kernel")
    ir_text = spec.get("ir_text")
    if (kernel_name is None) == (ir_text is None):
        raise ProtocolError(
            "bad_request", "exactly one of ir_text/kernel is required")
    args = spec.get("args")
    if kernel_name is not None:
        from ..benchsuite import KERNELS_BY_NAME

        kernel = KERNELS_BY_NAME.get(kernel_name)
        if kernel is None:
            raise ProtocolError("bad_request",
                                f"unknown kernel {kernel_name!r}")
        ir_text = kernel.ir_text()
        if args is None:
            args = list(kernel.args)
    if not isinstance(ir_text, str) or not ir_text.strip():
        raise ProtocolError("bad_request", "ir_text must be ILOC text")

    int_regs = spec.get("int_regs", 16)
    float_regs = spec.get("float_regs", int_regs)
    if not isinstance(int_regs, int) or not isinstance(float_regs, int) \
            or int_regs < 1 or float_regs < 1:
        raise ProtocolError("bad_request",
                            "int_regs/float_regs must be positive integers")

    mode_name = spec.get("mode", RenumberMode.REMAT.value)
    try:
        mode = RenumberMode(mode_name)
    except ValueError:
        raise ProtocolError(
            "bad_request",
            f"unknown mode {mode_name!r} "
            f"(one of {', '.join(m.value for m in RenumberMode)})")

    allocator = spec.get("allocator", "iterated")
    if allocator not in ALLOCATOR_NAMES:
        raise ProtocolError(
            "bad_request",
            f"unknown allocator {allocator!r} "
            f"(one of {', '.join(ALLOCATOR_NAMES)})")

    flags = {}
    for name in ("optimize_first", "biased", "lookahead",
                 "coalesce_splits", "optimistic", "run", "cacheable"):
        if name in spec:
            if not isinstance(spec[name], bool):
                raise ProtocolError("bad_request",
                                    f"{name} must be a boolean")
            flags[name] = spec[name]

    scheme = spec.get("scheme")
    if scheme is not None \
            and (not isinstance(scheme, str) or scheme not in SCHEMES):
        raise ProtocolError(
            "bad_request",
            f"unknown scheme {scheme!r} (one of {', '.join(SCHEMES)})")
    if args is None:
        args = []
    if not isinstance(args, list):
        raise ProtocolError("bad_request", "args must be an array")

    try:
        return ExperimentRequest(
            ir_text=ir_text,
            machine=machine_with(int_regs, float_regs),
            mode=mode, scheme=scheme, allocator=allocator,
            args=tuple(args), **flags)
    except (TypeError, ValueError) as exc:
        raise ProtocolError("bad_request", str(exc))


def summary_to_json(summary: AllocationSummary) -> dict:
    """The deterministic JSON form of an engine summary (timing
    excluded; see the module docstring's byte-identity note)."""
    from dataclasses import asdict

    counts = None
    if summary.counts is not None:
        counts = {cls.value: n for cls, n in summary.counts.items()}
    output = None
    if summary.output is not None:
        output = list(summary.output)
    return {
        "key": summary.key,
        "function": summary.function_name,
        "machine": summary.machine_name,
        "int_regs": summary.int_regs,
        "float_regs": summary.float_regs,
        "mode": summary.mode.value,
        "allocator": summary.allocator,
        "stats": asdict(summary.stats),
        "rounds": summary.rounds,
        "code_size": summary.code_size,
        "allocated_size": summary.allocated_size,
        "counts": counts,
        "steps": summary.steps,
        "output": output,
    }


def failure_to_json(failure: ExperimentFailure) -> dict:
    """The typed error body for a quarantined request.  A failure the
    deadline-aware supervisor declared expired (rather than poison)
    answers with the ``expired`` kind so clients don't retry dead work."""
    return {
        "kind": "expired" if failure.error_class == "DeadlineExpired"
        else "failed",
        "key": failure.key,
        "function": failure.function_name,
        "error_class": failure.error_class,
        "message": failure.message,
        "attempts": failure.attempts,
        "worker_fate": failure.worker_fate,
        "attempt_errors": list(failure.attempt_errors),
    }


def error_response(request_id: Any, kind: str, message: str,
                   retry_after: float | None = None) -> dict:
    error: dict[str, Any] = {"kind": kind, "message": message}
    if retry_after is not None:
        error["retry_after"] = round(retry_after, 4)
    return {"id": request_id, "ok": False, "error": error}


def ok_response(request_id: Any, result: Any) -> dict:
    return {"id": request_id, "ok": True, "result": result}
