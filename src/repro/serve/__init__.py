"""Allocation-as-a-service: the persistent async compile server.

``repro serve`` keeps one :class:`~repro.engine.engine.ExperimentEngine`
— warm worker pool, in-process memo, sharded persistent cache — alive
behind one asyncio JSONL/TCP front end, so repeated experiment traffic
pays interpreter spawn and import cost once instead of per invocation.
``server.py`` holds the daemon (admission control, per-client fair
admission, deadlines, in-flight dedup, work-conserving batching,
drain-on-SIGTERM), ``protocol.py`` the wire format and its
byte-identity guarantees, ``client.py`` the blocking client library
plus the reconnecting/retrying
:class:`~repro.serve.client.ResilientClient`, ``loadgen.py`` the
threaded load generator the benchmarks drive, ``observe.py`` the
per-request lifecycle records, access log and flight recorder, and
``top.py`` the live ``repro top`` dashboard.  See ``docs/serving.md``
and ``docs/observability.md``.
"""

from .client import (ResilientClient, RetriesExhausted, ServeClient,
                     ServeError)
from .loadgen import LoadReport, default_corpus, percentile, run_load
from .observe import (FlightRecorder, PHASES, RequestRecord,
                      access_line, access_record, stitch_request_trace)
from .protocol import (PROTOCOL_VERSION, ProtocolError, RETRYABLE_KINDS,
                       dumps, envelope_meta, failure_to_json,
                       request_from_json, summary_to_json)
from .server import (AllocationServer, ServeConfig, ServerThread,
                     TokenBucket, execute_trace, run_server)
from .top import format_seconds, render_dashboard, run_top

__all__ = [
    "AllocationServer",
    "FlightRecorder",
    "LoadReport",
    "PHASES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RETRYABLE_KINDS",
    "RequestRecord",
    "ResilientClient",
    "RetriesExhausted",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServerThread",
    "TokenBucket",
    "access_line",
    "access_record",
    "default_corpus",
    "dumps",
    "envelope_meta",
    "execute_trace",
    "failure_to_json",
    "format_seconds",
    "percentile",
    "render_dashboard",
    "request_from_json",
    "run_load",
    "run_server",
    "run_top",
    "stitch_request_trace",
    "summary_to_json",
]
