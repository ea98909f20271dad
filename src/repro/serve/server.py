"""Allocation-as-a-service: the persistent async compile server.

One process owns one :class:`~repro.engine.engine.ExperimentEngine`
with a warm :class:`~repro.engine.supervisor.WorkerPool` attached, and
serves allocation requests to any number of clients over JSONL/TCP
(:mod:`repro.serve.protocol`).  The moving parts:

* **Admission control** — every ``allocate``/``trace`` request must win
  a slot in a bounded queue.  A full queue is answered *immediately*
  with a typed ``overload`` rejection instead of unbounded buffering;
  clients back off and retry (``serve.overload_rejections`` counts the
  pushback).  Rejections carry a ``retry_after`` hint.
* **Fair admission** — a request that names its tenant (the v2
  ``client`` envelope field) first spends a token from that tenant's
  :class:`TokenBucket` (:data:`CLIENT_RATE` per second, bursts of
  :data:`CLIENT_BURST`).  A tenant over its rate gets ``overload`` with
  the time until its next token as ``retry_after``
  (``serve.throttled``), so one greedy tenant cannot starve the rest.
  Requests without a ``client`` are not metered.
* **In-flight dedup** — admitted requests are keyed by the engine's
  content hash (:func:`~repro.engine.request.request_key`).  A request
  whose key is already queued or executing attaches to the existing
  future and consumes *no* queue slot: one execution answers every
  subscriber (``serve.deduplicated``).
* **Deadlines** — a request's ``deadline_s`` bounds its end-to-end
  wait: work already dead on arrival is answered ``expired`` without
  queueing, and the supervisor abandons work whose deadline passes
  before or during execution.  A subscriber is answered ``expired``
  only when its *own* deadline has passed; if the shared execution
  expired on another subscriber's deadline, it is admitted again.
* **Work-conserving batching** — a single batcher task takes the queue
  head plus whatever else is already queued (up to ``max_batch``) and
  hands the batch to :meth:`ExperimentEngine.run_many
  <repro.engine.engine.ExperimentEngine.run_many>` on a worker thread
  at once.  It never waits for stragglers: an idle server dispatches
  each request alone, and batches form only from requests that
  arrived while the previous batch ran, which then share one cache
  pass and one supervised fan-out.
* **Warm workers** — the engine's pool is spawned when the server
  starts and outlives every batch, so no request waits on an
  interpreter spawn; spawn and import cost is paid ``pool.size`` times
  (plus crash replacement), not per request.  All of the supervisor's
  failure handling — per-attempt timeouts, retry with backoff,
  quarantine, serial fallback — applies unchanged; a quarantined
  request comes back to its clients as a typed ``failed`` error.
* **Drain on SIGTERM** — the listener closes, admission stops
  (``draining`` rejections), everything already admitted runs to
  completion and is answered, then the process exits 0.
* **Request observability** — every request line gets a server-minted
  id and contiguous lifecycle stamps (``accept → parse → admission →
  queue_wait → batch_wait → execute → respond``); with tracing on the
  engine's per-attempt spans — including the worker-side ``exec``
  subtrees rebased across the process boundary — are stitched under
  ``execute`` into one per-request trace.  The N slowest and all
  failed traces live in a bounded flight recorder (the ``debug`` op;
  dumped to disk on drain), each request can be appended to a JSONL
  access log, and latency quantiles are served by the ``metrics`` op
  and an optional Prometheus text endpoint (see
  :mod:`repro.serve.observe`).

The batcher is the only touchpoint of the (thread-oblivious) engine and
pool, so no locking is needed around them; per-connection writes are
serialized with an ``asyncio`` lock so interleaved responses cannot
corrupt the stream.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import logging
import pathlib
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from ..engine import (AllocationSummary, ExperimentEngine,
                      ExperimentFailure, RequestObservation, request_key)
from ..obs import MetricsRegistry, render_prometheus
from . import protocol
from .observe import FlightRecorder, RequestRecord, access_line

logger = logging.getLogger(__name__)

#: fair admission: tokens per second each declared ``client`` earns
CLIENT_RATE = 500.0
#: fair admission: the most tokens one ``client`` can bank
CLIENT_BURST = 250.0
#: fair admission: bucket count past which refilled buckets are dropped
CLIENT_BUCKETS_SWEEP = 1024


class TokenBucket:
    """Fair admission: *rate* tokens/second, holding at most *burst*.

    :meth:`admit` spends one token and returns 0.0, or returns how
    many seconds until a token accrues — the ``retry_after`` hint for
    the throttled client.
    """

    def __init__(self, rate: float, burst: float,
                 now: float | None = None):
        self.rate = max(1e-9, rate)
        self.burst = max(1.0, burst)
        self.tokens = self.burst
        self.last = time.monotonic() if now is None else now

    def admit(self, now: float | None = None, cost: float = 1.0) -> float:
        if now is None:
            now = time.monotonic()
        self.tokens = min(self.burst,
                          self.tokens + (now - self.last) * self.rate)
        self.last = now
        if self.tokens >= cost:
            self.tokens -= cost
            return 0.0
        return (cost - self.tokens) / self.rate

    def is_full(self, now: float) -> bool:
        """True once the bucket has refilled to *burst*: from then on it
        admits exactly like a fresh bucket."""
        return self.tokens + (now - self.last) * self.rate >= self.burst


@dataclass
class ServeConfig:
    """Tunables of one :class:`AllocationServer`.

    Attributes:
        host / port: listen address; port 0 binds an ephemeral port
            (the bound port is announced and available as
            :attr:`AllocationServer.port`).
        queue_limit: admission bound — queued-but-unbatched requests
            beyond this are rejected with ``overload``.
        max_batch: the most queued requests one engine batch takes;
            the batcher never waits to fill it.
        trace_requests: collect per-request engine observations
            (attempt spans, provenance) and stitch complete traces for
            the flight recorder; off, requests still get lifecycle
            stamps but no execution subtree.
        access_log: path of the structured JSONL access log (one
            :func:`~repro.serve.observe.access_line` per request);
            ``None`` disables it.
        flight_slots: traces kept by the flight recorder (N slowest
            plus the N most recent failures).
        flight_dump: path the flight recorder dump is written to when
            the server drains; ``None`` skips the dump.
        metrics_addr: ``HOST:PORT`` (or just ``PORT``) for the
            Prometheus text exposition endpoint; ``None`` disables it.
    """

    host: str = "127.0.0.1"
    port: int = 0
    queue_limit: int = 256
    max_batch: int = 32
    trace_requests: bool = True
    access_log: str | pathlib.Path | None = None
    flight_slots: int = 64
    flight_dump: str | pathlib.Path | None = None
    metrics_addr: str | None = None


@dataclass
class _Pending:
    """One admitted unit of work (unique by key) and its subscribers."""

    key: str
    op: str
    request: Any
    future: asyncio.Future = field(repr=False)
    #: the latest subscriber deadline (absolute ``time.monotonic``);
    #: ``None`` once any subscriber has no deadline — the work must
    #: then run to completion.  The batch reads it at dispatch, so a
    #: subscriber that attaches later is not covered by it
    deadline: float | None = None
    #: batcher stamps shared by every subscriber's lifecycle record
    t_dequeue: float | None = None
    t_dispatch: float | None = None
    #: the engine's per-request observation (tracing on, allocate only)
    observation: RequestObservation | None = None


class AllocationServer:
    """The asyncio server; owns admission, dedup, and the batcher.

    The caller owns the *engine* (and its pool): construct, pass in,
    and close the pool after :meth:`wait_closed` returns.
    """

    def __init__(self, engine: ExperimentEngine,
                 config: ServeConfig | None = None):
        self.engine = engine
        self.config = config or ServeConfig()
        self.metrics = MetricsRegistry()
        self.queue: asyncio.Queue[_Pending | None] = \
            asyncio.Queue(maxsize=self.config.queue_limit)
        #: key → pending work, for in-flight dedup
        self.inflight: dict[str, _Pending] = {}
        #: declared ``client`` → its fair-admission bucket; refilled
        #: buckets are dropped once the dict reaches ``_sweep_at``
        self.buckets: dict[str, TokenBucket] = {}
        self._sweep_at = CLIENT_BUCKETS_SWEEP
        self.flight = FlightRecorder(self.config.flight_slots)
        self.draining = False
        self.port: int | None = None
        self.metrics_port: int | None = None
        self._server: asyncio.Server | None = None
        self._metrics_server: asyncio.Server | None = None
        self._batcher_task: asyncio.Task | None = None
        self._drain_task: asyncio.Task | None = None
        self._closed = asyncio.Event()
        self._conn_tasks: set[asyncio.Task] = set()
        self._request_seq = itertools.count(1)
        self._access_log = None
        #: retry-hint inputs: last batch's duration, running batch's start
        self._batch_s = 0.0
        self._running_since: float | None = None

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        if self.engine.pool is not None:
            # before the batcher exists: one thread at a time uses the pool
            self.engine.pool.prespawn()
        if self.config.access_log is not None:
            self._access_log = open(self.config.access_log, "a",
                                    encoding="utf-8")
        self._server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        if self.config.metrics_addr is not None:
            host, mport = _parse_addr(self.config.metrics_addr)
            self._metrics_server = await asyncio.start_server(
                self._handle_metrics_conn, host, mport)
            self.metrics_port = \
                self._metrics_server.sockets[0].getsockname()[1]
        self._batcher_task = asyncio.create_task(self._batcher())

    def request_shutdown(self) -> None:
        """Begin the drain (idempotent; safe from a signal handler)."""
        if self._drain_task is None:
            self.draining = True
            self._drain_task = asyncio.create_task(self._drain())

    async def wait_closed(self) -> None:
        await self._closed.wait()

    async def _drain(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # everything admitted before the drain still gets its answer
        while self.inflight:
            await asyncio.gather(
                *(p.future for p in self.inflight.values()),
                return_exceptions=True)
        await self.queue.put(None)
        if self._batcher_task is not None:
            await self._batcher_task
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks),
                                 return_exceptions=True)
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
        if self.config.flight_dump is not None:
            try:
                with open(self.config.flight_dump, "w",
                          encoding="utf-8") as handle:
                    json.dump(self.flight.dump(), handle, sort_keys=True)
            except OSError:
                logger.exception("could not write flight-recorder dump")
        if self._access_log is not None:
            self._access_log.close()
            self._access_log = None
        self._closed.set()

    # -- connections -----------------------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        write_lock = asyncio.Lock()
        pending: set[asyncio.Task] = set()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.create_task(
                    self._serve_line(line, writer, write_lock))
                pending.add(task)
                self._conn_tasks.add(task)
                task.add_done_callback(pending.discard)
                task.add_done_callback(self._conn_tasks.discard)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            if pending:
                await asyncio.gather(*list(pending),
                                     return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_line(self, line: bytes,
                          writer: asyncio.StreamWriter,
                          write_lock: asyncio.Lock) -> None:
        record = self._new_record()
        response = await self._respond(line, record)
        payload = protocol.encode_line(response)
        async with write_lock:
            try:
                writer.write(payload)
                await writer.drain()
            except (ConnectionError, OSError):
                pass  # client went away; the work still fed the cache
        self._finish_record(record)

    # -- request handling ------------------------------------------------------

    def _new_record(self) -> RequestRecord:
        return RequestRecord(
            request_id=f"r{next(self._request_seq):06d}",
            wall_time=time.time(), t_accept=time.monotonic())

    def _finish_record(self, record: RequestRecord) -> None:
        """Stamp the respond boundary and fan the finished record out
        to the phase histograms, the access log, the flight recorder."""
        record.t_respond = time.monotonic()
        engine_op = record.op in ("allocate", "trace")
        if engine_op:
            self.metrics.histogram("serve.request_seconds").observe(
                record.total_s)
            for name, value in record.phase_seconds().items():
                self.metrics.histogram(f"serve.phase.{name}").observe(
                    value)
        if self._access_log is not None:
            try:
                self._access_log.write(access_line(record) + "\n")
                self._access_log.flush()
            except (OSError, ValueError):
                pass  # a broken log must never break serving
        if engine_op or record.outcome != "ok":
            self.flight.record(record)

    async def _respond(self, line: bytes,
                       record: RequestRecord | None = None) -> dict:
        """One request line → one response object (never raises)."""
        if record is None:  # direct callers (tests) skip _serve_line
            record = self._new_record()
        request_id = None
        try:
            obj = protocol.decode_line(line)
            request_id = obj.get("id")
            record.client_id = request_id
            _, op = protocol.check_envelope(obj)
            record.op = op
            client, deadline_s = protocol.envelope_meta(obj)
            record.client = client
            self.metrics.counter("serve.requests").inc()
            self.metrics.counter(f"serve.op.{op}").inc()
            if op in ("ping", "metrics", "shutdown", "debug"):
                record.t_parse = time.monotonic()
                if op == "ping":
                    return protocol.ok_response(request_id, {"pong": True})
                if op == "metrics":
                    return protocol.ok_response(request_id,
                                                self.metrics_snapshot())
                if op == "debug":
                    return protocol.ok_response(request_id,
                                                self.flight.dump())
                self.request_shutdown()
                return protocol.ok_response(request_id, {"draining": True})
            if client is not None:
                wait = self._throttle(client)
                if wait > 0.0:
                    record.outcome = "overload"
                    record.t_parse = record.t_admit = time.monotonic()
                    self.metrics.counter("serve.throttled").inc()
                    return protocol.error_response(
                        request_id, "overload",
                        f"client {client!r} over its admission rate",
                        retry_after=wait)
            deadline = (time.monotonic() + deadline_s
                        if deadline_s is not None else None)
            return await self._admit(request_id, op, obj.get("request"),
                                     record, deadline)
        except protocol.ProtocolError as exc:
            record.outcome = exc.kind
            self.metrics.counter("serve.bad_requests").inc()
            return protocol.error_response(request_id, exc.kind,
                                           exc.message)
        except Exception as exc:  # never kill the connection loop
            record.outcome = "internal"
            logger.exception("internal error serving request")
            return protocol.error_response(request_id, "internal",
                                           f"{type(exc).__name__}: {exc}")

    def _throttle(self, client: str, now: float | None = None) -> float:
        """Spend one of *client*'s tokens: 0.0, or the seconds until
        its next token accrues."""
        if now is None:
            now = time.monotonic()
        bucket = self.buckets.get(client)
        if bucket is None:
            if len(self.buckets) >= self._sweep_at:
                # a full bucket admits like the fresh one that would
                # replace it, so dropping it changes no decision; the
                # doubling threshold keeps sweeps amortized O(1)
                self.buckets = {name: kept for name, kept
                                in self.buckets.items()
                                if not kept.is_full(now)}
                self._sweep_at = max(CLIENT_BUCKETS_SWEEP,
                                     2 * len(self.buckets))
            bucket = self.buckets[client] = TokenBucket(
                CLIENT_RATE, CLIENT_BURST, now)
        return bucket.admit(now)

    async def _admit(self, request_id: Any, op: str, spec: Any,
                     record: RequestRecord,
                     deadline: float | None = None) -> dict:
        request = protocol.request_from_json(spec)
        key = f"{op}:{request_key(request)}"
        record.t_parse = time.monotonic()
        record.key = key
        record.allocator = request.allocator
        if deadline is not None and record.t_parse >= deadline:
            # already dead on arrival: don't waste a queue slot
            record.outcome = "expired"
            record.t_admit = time.monotonic()
            self.metrics.counter("serve.expired").inc()
            return protocol.error_response(
                request_id, "expired",
                "end-to-end deadline passed before admission")
        while True:
            pending = self.inflight.get(key)
            if pending is None:
                if self.draining:
                    record.outcome = "draining"
                    record.t_admit = time.monotonic()
                    self.metrics.counter("serve.drain_rejections").inc()
                    return protocol.error_response(
                        request_id, "draining", "server is shutting down",
                        retry_after=self._retry_after())
                pending = _Pending(
                    key, op, request,
                    asyncio.get_running_loop().create_future(),
                    deadline=deadline)
                try:
                    self.queue.put_nowait(pending)
                except asyncio.QueueFull:
                    record.outcome = "overload"
                    record.t_admit = time.monotonic()
                    self.metrics.counter("serve.overload_rejections").inc()
                    return protocol.error_response(
                        request_id, "overload",
                        f"admission queue full "
                        f"({self.config.queue_limit} pending); retry",
                        retry_after=self._retry_after())
                self.inflight[key] = pending
            else:
                record.dedup = True
                self.metrics.counter("serve.deduplicated").inc()
                if deadline is None:
                    # this subscriber waits forever: the work must finish
                    pending.deadline = None
                elif pending.deadline is not None:
                    pending.deadline = max(pending.deadline, deadline)
            if record.t_admit is None:
                record.t_admit = time.monotonic()
            status, body = await asyncio.shield(pending.future)
            if status == "error" and body.get("kind") == "expired" \
                    and (deadline is None or time.monotonic() < deadline):
                # the work expired on the deadline it was dispatched
                # with, which this subscriber attached too late to
                # lift: its own budget is not spent, so admit it again
                continue
            break
        if record.dedup:
            # a subscriber did not queue or batch: its whole wait is
            # the execute phase, keeping its phase sum contiguous
            record.t_dequeue = record.t_dispatch = record.t_admit
        else:
            record.t_dequeue = pending.t_dequeue
            record.t_dispatch = pending.t_dispatch
        record.t_execute = time.monotonic()
        observation = pending.observation
        if observation is not None:
            record.source = observation.source
            record.attempts = observation.attempts
            record.retries = observation.retries
            record.cache_put_s = observation.cache_put_s
            record.spans = list(observation.spans)
        if status == "ok":
            return protocol.ok_response(request_id, body)
        record.outcome = body.get("kind", "internal") \
            if isinstance(body, dict) else "internal"
        if record.outcome == "expired":
            self.metrics.counter("serve.expired").inc()
        return {"id": request_id, "ok": False, "error": body}

    def _retry_after(self) -> float:
        """The back-off hint for a rejected request: the running batch
        and every queued batch, each priced at the last batch's measured
        duration or the running batch's elapsed time, plus 10 ms."""
        running_s = (time.monotonic() - self._running_since
                     if self._running_since is not None else 0.0)
        batches = 1 + -(-self.queue.qsize() // max(1, self.config.max_batch))
        return max(self._batch_s, running_s) * batches + 0.01

    # -- the batcher -----------------------------------------------------------

    async def _batcher(self) -> None:
        """Dispatch the queue head plus whatever else is queued, now."""
        while True:
            batch = [await self.queue.get()]
            while len(batch) < self.config.max_batch \
                    and not self.queue.empty():
                batch.append(self.queue.get_nowait())
            work = [p for p in batch if p is not None]
            if work:
                await self._run_batch(work)
            if len(work) < len(batch):  # the drain sentinel
                return

    async def _run_batch(self, batch: list[_Pending]) -> None:
        dequeued = time.monotonic()
        self.metrics.counter("serve.batches").inc()
        self.metrics.histogram("serve.batch_size").observe(len(batch))
        dispatched = self._running_since = time.monotonic()
        for pending in batch:
            pending.t_dequeue = dequeued
            pending.t_dispatch = dispatched
        loop = asyncio.get_running_loop()
        try:
            outcomes = await loop.run_in_executor(None, self._execute,
                                                  batch)
        except Exception as exc:  # defensive: answer rather than hang
            logger.exception("batch execution failed")
            outcomes = {p.key: ("error", {"kind": "internal",
                                          "message": str(exc)})
                        for p in batch}
        self._batch_s = time.monotonic() - dispatched
        self._running_since = None
        for pending in batch:
            self.inflight.pop(pending.key, None)
            if not pending.future.done():
                pending.future.set_result(
                    outcomes.get(pending.key,
                                 ("error", {"kind": "internal",
                                            "message": "no outcome"})))

    def _execute(self, batch: list[_Pending]) -> dict[str, tuple]:
        """Worker-thread side: the only caller of the engine and pool."""
        outcomes: dict[str, tuple] = {}
        allocs = [p for p in batch if p.op == "allocate"]
        if allocs:
            observations: dict[str, RequestObservation] | None = \
                {} if self.config.trace_requests else None
            deadlines = {p.key.split(":", 1)[-1]: p.deadline
                         for p in allocs if p.deadline is not None}
            results = self.engine.run_many([p.request for p in allocs],
                                           observations=observations,
                                           deadlines=deadlines or None)
            for pending, result in zip(allocs, results):
                if observations is not None:
                    pending.observation = observations.get(
                        pending.key.split(":", 1)[1])
                if isinstance(result, AllocationSummary):
                    outcomes[pending.key] = \
                        ("ok", protocol.summary_to_json(result))
                else:
                    assert isinstance(result, ExperimentFailure)
                    outcomes[pending.key] = \
                        ("error", protocol.failure_to_json(result))
        for pending in batch:
            if pending.op != "trace":
                continue
            if pending.deadline is not None \
                    and time.monotonic() >= pending.deadline:
                outcomes[pending.key] = \
                    ("error", {"kind": "expired",
                               "message": "end-to-end deadline passed "
                                          "before execution"})
                continue
            try:
                text = execute_trace(pending.request)
            except Exception as exc:
                outcomes[pending.key] = \
                    ("error", {"kind": "internal",
                               "message": f"{type(exc).__name__}: {exc}"})
            else:
                outcomes[pending.key] = ("ok", {"trace_text": text})
        return outcomes

    # -- observability ---------------------------------------------------------

    async def _handle_metrics_conn(self, reader: asyncio.StreamReader,
                                   writer: asyncio.StreamWriter) -> None:
        """A deliberately tiny HTTP/1.1 responder: every GET gets the
        Prometheus text exposition of :meth:`metrics_snapshot`."""
        try:
            while True:  # consume the request head; the path is ignored
                line = await reader.readline()
                if not line or line in (b"\r\n", b"\n"):
                    break
            body = render_prometheus(self.metrics_snapshot()).encode()
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: text/plain; version=0.0.4; "
                b"charset=utf-8\r\n"
                + f"Content-Length: {len(body)}\r\n".encode()
                + b"Connection: close\r\n\r\n" + body)
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def metrics_snapshot(self) -> dict:
        """``serve.*`` + ``pool.*`` + the engine's own registry."""
        engine_metrics = self.engine.metrics()
        merged = MetricsRegistry()
        for name, value in self.metrics.counters().items():
            merged.counter(name).inc(value)
        for name, value in engine_metrics.counters().items():
            merged.counter(name).inc(value)
        if self.engine.pool is not None:
            merged.absorb_dataclass(self.engine.pool.stats, "pool")
            merged.counter("pool.size").inc(self.engine.pool.size)
        snapshot = {"counters": merged.counters()}
        histograms = self.metrics.histograms()
        histograms.update(engine_metrics.histograms())
        snapshot["histograms"] = histograms
        snapshot["queue_depth"] = self.queue.qsize()
        snapshot["inflight"] = len(self.inflight)
        return snapshot


def _parse_addr(addr: str) -> tuple[str, int]:
    """``HOST:PORT`` (or bare ``PORT``) → ``(host, port)``."""
    host, _, port = addr.rpartition(":")
    return host or "127.0.0.1", int(port)


def execute_trace(request) -> str:
    """The ``trace`` operation: allocate with the tracer attached and
    render the JSONL document — identical to what ``repro trace
    --format jsonl`` emits for the same inputs; every request field
    reaches the allocation exactly as for ``allocate``."""
    from ..engine.executor import allocate_request
    from ..ir import parse_function
    from ..obs import Tracer, metrics_from_allocation, trace_to_text
    from ..opt import optimize

    fn = parse_function(request.ir_text)
    if request.optimize_first:
        optimize(fn)
    result = allocate_request(fn, request,
                              tracer=Tracer(capture_events=True))
    meta = {"function": result.function.name,
            "mode": result.mode.value,
            "machine": result.machine.name,
            "int_regs": result.machine.int_regs,
            "float_regs": result.machine.float_regs,
            "source": "<serve>"}
    return trace_to_text(result.trace, meta,
                         metrics_from_allocation(result))


async def run_server(engine: ExperimentEngine, config: ServeConfig,
                     announce=None, announce_metrics=None) -> int:
    """Start, announce, install signal-driven drain, serve until done.

    *announce* is called once with the bound ``(host, port)`` — the CLI
    prints the ``# serving on HOST:PORT`` line from it so wrappers can
    scrape the ephemeral port.  *announce_metrics* likewise receives
    the Prometheus endpoint's bound ``(host, port)`` when
    ``metrics_addr`` is configured.
    """
    server = AllocationServer(engine, config)
    await server.start()
    if announce is not None:
        announce(config.host, server.port)
    if announce_metrics is not None and server.metrics_port is not None:
        announce_metrics(_parse_addr(config.metrics_addr)[0],
                         server.metrics_port)
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, server.request_shutdown)
        except (NotImplementedError, RuntimeError):
            pass  # non-Unix loop or nested loop: Ctrl-C still unwinds
    await server.wait_closed()
    return 0


class ServerThread:
    """An in-process server on a background thread (tests, benches).

    Usage::

        with ServerThread(engine) as srv:
            client = ServeClient("127.0.0.1", srv.port)

    The context exit drains the server exactly like SIGTERM would.
    """

    def __init__(self, engine: ExperimentEngine,
                 config: ServeConfig | None = None):
        self.engine = engine
        self.config = config or ServeConfig()
        self.server: AllocationServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    @property
    def port(self) -> int:
        assert self.server is not None and self.server.port is not None
        return self.server.port

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.server = AllocationServer(self.engine, self.config)
        await self.server.start()
        self._ready.set()
        await self.server.wait_closed()

    def __enter__(self) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("server thread failed to start")
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def stop(self) -> None:
        if self._loop is not None and self.server is not None:
            try:
                self._loop.call_soon_threadsafe(
                    self.server.request_shutdown)
            except RuntimeError:
                pass  # loop already closed: the server drained itself
        self._thread.join(timeout=60)
