"""Server-side request observability: lifecycle records, the access
log, trace stitching, and the flight recorder.

Every request line the allocation server accepts gets a
:class:`RequestRecord` carrying the server-minted request id and the
lifecycle stamps ``accept → parse → admission → queue_wait →
batch_wait → execute → respond``.  The stamps are *contiguous* — each
phase ends exactly where the next begins — so the per-phase latencies
in an access-log line always sum to the end-to-end latency (phases a
request never reached collapse to zero width instead of leaving gaps).

Three consumers share the record:

* :func:`access_line` — one JSON object per request for the structured
  access log (``repro serve --access-log``),
* :func:`stitch_request_trace` — the record as a single well-nested
  span tree: lifecycle phases as children of one ``request`` root, the
  engine's per-attempt spans (worker-side ``exec`` subtrees already
  rebased by the supervisor) grafted under ``execute``,
* :class:`FlightRecorder` — a bounded ring of the N slowest and the
  most recent failed requests, stitched traces included, dumpable via
  the ``debug`` protocol op and on drain.

Everything here is pure over the record (no clock reads), so the
access-line format is golden-testable and the stitcher deterministic.
"""

from __future__ import annotations

import heapq
import itertools
import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from ..obs.span import Span, clamp_span, span_to_payload

#: the contiguous lifecycle phases, in stamp order
PHASES = ("parse", "admission", "queue_wait", "batch_wait", "execute",
          "respond")


@dataclass
class RequestRecord:
    """One request line's lifecycle, as the server saw it.

    Stamps are ``time.monotonic`` readings; ``None`` means the request
    never reached that boundary (a rejected request has no dequeue
    stamp).  ``wall_time`` is the one wall-clock reading, taken at
    accept, for the access-log timestamp.
    """

    request_id: str
    wall_time: float = 0.0
    op: str = "?"
    client_id: Any = None
    #: the v2 envelope's stable client identity (fair admission meters
    #: by it); ``None`` for v1 clients
    client: str | None = None
    key: str | None = None
    #: the allocation strategy of an engine request (``iterated`` /
    #: ``ssa``); ``None`` for non-engine ops and rejected envelopes
    allocator: str | None = None
    #: ``ok`` or the error kind (``bad_request`` / ``overload`` /
    #: ``draining`` / ``failed`` / ``internal``)
    outcome: str = "ok"
    #: attached to an already in-flight execution (no queue slot used)
    dedup: bool = False
    #: where the engine's answer came from (``memo`` / ``cache`` /
    #: ``executed`` / ``failed``); ``None`` for non-engine ops
    source: str | None = None
    attempts: int = 0
    retries: int = 0
    cache_put_s: float = 0.0
    t_accept: float = 0.0
    t_parse: float | None = None
    t_admit: float | None = None
    t_dequeue: float | None = None
    t_dispatch: float | None = None
    t_execute: float | None = None
    t_respond: float | None = None
    #: the engine's ``attempt`` / ``cache_put`` spans for this request
    spans: list[Span] = field(default_factory=list)

    @property
    def total_s(self) -> float:
        end = self.t_respond if self.t_respond is not None else self.t_accept
        return end - self.t_accept

    def stamps(self) -> list[float]:
        """The seven boundary stamps with gaps forward-filled, so the
        implied phases are contiguous and sum to :attr:`total_s`."""
        filled = [self.t_accept]
        for stamp in (self.t_parse, self.t_admit, self.t_dequeue,
                      self.t_dispatch, self.t_execute, self.t_respond):
            filled.append(stamp if stamp is not None else filled[-1])
        return filled

    def phase_seconds(self) -> dict[str, float]:
        """Per-phase latencies, keyed by :data:`PHASES`."""
        stamps = self.stamps()
        return {name: max(0.0, stamps[i + 1] - stamps[i])
                for i, name in enumerate(PHASES)}


def access_record(record: RequestRecord) -> dict[str, Any]:
    """The access-log object for one finished request."""
    return {
        "ts": round(record.wall_time, 6),
        "id": record.request_id,
        "client_id": record.client_id,
        "client": record.client,
        "op": record.op,
        "key": record.key,
        "allocator": record.allocator,
        "outcome": record.outcome,
        "dedup": record.dedup,
        "source": record.source,
        "attempts": record.attempts,
        "retries": record.retries,
        "total_s": round(record.total_s, 6),
        "phases": {name: round(value, 6)
                   for name, value in record.phase_seconds().items()},
        "cache_put_s": round(record.cache_put_s, 6),
    }


#: canonical JSON (sorted keys, no spaces), built once per process
_encode_canonical = json.JSONEncoder(sort_keys=True,
                                     separators=(",", ":")).encode


def access_line(record: RequestRecord) -> str:
    """One access-log line (canonical JSON, no newline)."""
    return _encode_canonical(access_record(record))


def stitch_request_trace(record: RequestRecord) -> Span:
    """The record as one well-nested span tree.

    The root ``request`` span covers accept→respond; its children are
    the six lifecycle phases (contiguous by construction), and the
    engine's per-attempt spans — each already carrying the rebased
    worker-side ``exec`` subtree — are grafted under ``execute``,
    clamped into its window so the tree stays well-nested even when an
    attempt's clock readings protrude by scheduling jitter.
    """
    stamps = record.stamps()
    root = Span("request", {
        "id": record.request_id, "op": record.op,
        "outcome": record.outcome, "dedup": record.dedup,
        **({"key": record.key} if record.key else {}),
        **({"source": record.source} if record.source else {}),
    }, start=stamps[0], end=stamps[-1])
    for i, name in enumerate(PHASES):
        phase = Span(name, start=stamps[i], end=stamps[i + 1])
        clamp_span(phase, root.start, root.end)
        if name == "execute":
            for span in record.spans:
                clamp_span(span, phase.start, phase.end)
                phase.children.append(span)
        root.children.append(phase)
    return root


class FlightRecorder:
    """A bounded ring of the most interesting request traces.

    Keeps the *slots* slowest successful ``allocate``/``trace``
    requests (a min-heap, cheapest evicted first) and the *slots* most
    recent failed requests of any op (a deque), each as its access
    record plus the stitched trace in payload form.  Memory is bounded
    by ``2 * slots`` entries regardless of traffic.
    """

    def __init__(self, slots: int = 64):
        self.slots = max(1, slots)
        self.recorded = 0
        self._slowest: list[tuple[float, int, dict]] = []
        self._failed: deque[dict] = deque(maxlen=self.slots)
        self._seq = itertools.count()

    def record(self, record: RequestRecord) -> None:
        """Keep *record* if it is interesting; an entry is built only
        for a record that is kept."""
        self.recorded += 1
        if record.outcome != "ok":
            self._failed.append(self._entry(record))
            return
        total = record.total_s
        if len(self._slowest) < self.slots:
            heapq.heappush(self._slowest,
                           (total, next(self._seq), self._entry(record)))
        elif total > self._slowest[0][0]:
            heapq.heapreplace(self._slowest,
                              (total, next(self._seq), self._entry(record)))

    @staticmethod
    def _entry(record: RequestRecord) -> dict[str, Any]:
        return {"access": access_record(record),
                "trace": span_to_payload(stitch_request_trace(record))}

    def dump(self) -> dict[str, Any]:
        """JSON-ready snapshot: slowest first, failures oldest first."""
        slowest = [entry for _, _, entry in
                   sorted(self._slowest, key=lambda item: -item[0])]
        return {"slots": self.slots, "recorded": self.recorded,
                "slowest": slowest, "failures": list(self._failed)}
