"""Supervised execution: timeouts, crash detection, retry, quarantine.

``ExperimentEngine`` used to fan cache misses out with a bare
``pool.map`` — one worker segfault, OOM kill, or pathological-CFG hang
lost the entire batch.  This module replaces the pool with a
*supervisor* over long-lived ``spawn`` worker processes:

* each request is dispatched **individually** over a pipe, so the
  supervisor always knows which request a worker is holding;
* a configurable **per-attempt timeout** catches hangs — the worker is
  killed and the request retried elsewhere;
* **worker death** (the process sentinel fires while a request is in
  flight) is detected per request, not per batch;
* failed attempts are **retried with exponential backoff** up to a
  bounded budget, after which the request is declared poison and
  **quarantined** as a typed :class:`ExperimentFailure` — surviving
  requests still come back as normal summaries, so harnesses render
  partial tables instead of aborting;
* when the pool itself is unhealthy (``max_spawn_failures`` consecutive
  worker spawns fail) the supervisor **degrades to serial in-process
  execution** and finishes the batch without workers.

Worker processes live in a :class:`WorkerPool`.  A supervisor that is
not handed one creates an ephemeral pool and tears it down with the
batch (the historical behaviour); long-running callers — the
allocation server's warm pool — construct a pool once and pass it to
every batch, so steady-state traffic reuses live workers instead of
paying interpreter spawn and import cost per ``run_many``.

Results are delivered to the caller *as they arrive* via ``on_result``
(the engine uses this to flush the persistent cache incrementally), so
a ``KeyboardInterrupt`` mid-batch terminates the workers promptly and
loses nothing that already completed.

Determinism note: the allocator is deterministic, so a retried request
returns a byte-identical summary no matter which worker (or the serial
fallback) produced it — the chaos suite in ``tests/engine/test_chaos.py``
asserts exactly that.

Fault-injection points (``engine/faults.py``) are threaded through both
the worker loop and the supervisor so the recovery paths are provable;
with no plan installed they cost one ``is None`` check per request.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait

from ..obs.span import (Span, Tracer, clamp_span, shift_span,
                        span_from_payload, span_to_payload)
from .faults import CRASH, CRASH_EXIT_CODE, HANG, RAISE, FaultPlan, \
    InjectedFault
from .request import AllocationSummary, ExperimentRequest


@dataclass(frozen=True)
class SupervisorConfig:
    """Failure-handling policy for one engine.

    Attributes:
        timeout: per-attempt wall-clock limit in seconds (``None`` — no
            limit).  Enforced only for pooled execution; the serial
            path cannot kill itself.  The clock starts once the worker
            has signalled readiness, so interpreter spawn and import
            cost never count against the request.
        max_attempts: total attempts per request before it is
            quarantined (1 = no retries).
        backoff: base retry delay; attempt *n* is delayed
            ``backoff * 2**(n-1)`` seconds.
        max_spawn_failures: consecutive worker-spawn failures tolerated
            before the supervisor degrades to serial in-process
            execution.
    """

    timeout: float | None = None
    max_attempts: int = 3
    backoff: float = 0.05
    max_spawn_failures: int = 3


@dataclass
class ExperimentFailure:
    """A request the supervisor gave up on (typed, renderable).

    Harnesses receive these *in place of* an ``AllocationSummary`` and
    must render partial results around them.

    Attributes:
        key: the request's content hash.
        request: the poison request itself.
        error_class: exception class name of the final attempt
            (``WorkerCrash`` / ``Timeout`` for non-exception fates).
        message: human-readable detail of the final attempt.
        attempts: how many attempts were made (== the configured
            budget when quarantined).
        worker_fate: how the last worker ended — ``crashed`` (process
            died), ``killed`` (timeout), ``exception`` (clean error
            reply), or ``in-process`` (serial execution).
        attempt_errors: one line per failed attempt, oldest first.
    """

    key: str
    request: ExperimentRequest
    error_class: str
    message: str
    attempts: int
    worker_fate: str
    attempt_errors: list[str] = field(default_factory=list)

    @property
    def function_name(self) -> str:
        """The routine name, recovered from the request's ILOC header."""
        first = self.request.ir_text.split("\n", 1)[0].split()
        return first[1] if len(first) >= 2 else "?"

    def describe(self) -> str:
        return (f"{self.function_name}: {self.error_class} after "
                f"{self.attempts} attempt(s) [{self.worker_fate}] — "
                f"{self.message}")


class ExperimentError(RuntimeError):
    """Raised by single-request call sites that cannot render partials."""

    def __init__(self, failure: ExperimentFailure):
        super().__init__(failure.describe())
        self.failure = failure


def expect_summary(outcome: "AllocationSummary | ExperimentFailure"
                   ) -> AllocationSummary:
    """Unwrap an engine outcome, raising on a failure."""
    if isinstance(outcome, ExperimentFailure):
        raise ExperimentError(outcome)
    return outcome


@dataclass
class AttemptObservation:
    """What the supervisor saw happen to one request's attempts.

    ``spans`` holds one ``attempt`` :class:`~repro.obs.span.Span` per
    attempt (retries are siblings), each carrying ``spawn`` /
    ``handshake`` children when the dispatch paid them and the
    worker-side ``exec`` subtree rebased into the supervisor's
    ``time.monotonic`` clock — the raw material the allocation server
    stitches into a complete per-request trace.
    """

    attempts: int = 0
    spans: list[Span] = field(default_factory=list)

    @property
    def retries(self) -> int:
        return max(0, self.attempts - 1)


@dataclass
class SupervisedStats:
    """Fault accounting for one supervised batch."""

    retries: int = 0
    timeouts: int = 0
    worker_crashes: int = 0
    quarantined: int = 0
    #: requests dropped unexecuted (or killed mid-attempt) because
    #: their end-to-end deadline passed — answered ``DeadlineExpired``
    expired: int = 0
    spawn_failures: int = 0
    #: batches that degraded to serial in-process execution
    fallback_serial: int = 0
    #: worker processes spawned during this batch (0 in steady state
    #: when a warm :class:`WorkerPool` served every dispatch)
    worker_spawns: int = 0
    #: dispatches served by an already-live pool worker
    workers_reused: int = 0
    #: per-request attempt traces, keyed by request key (ignored by
    #: :meth:`MetricsRegistry.absorb_dataclass` — not a counter)
    observations: dict[str, AttemptObservation] = field(
        default_factory=dict)


def worker_main(conn, plan: FaultPlan | None = None) -> None:
    """The worker process loop: recv request, execute, send result.

    Module-level so it pickles by reference under ``spawn``.  The
    worker pays its import cost up front and announces ``("ready",)``
    before serving — the supervisor starts attempt deadlines at that
    signal, so a slow interpreter spawn is never mistaken for a hung
    request.  Replies are ``("ok", key, summary, exec_spans, clock)``
    or ``("err", key, class, message, exec_spans, clock)`` — the
    payload carries the worker-side execution span tree
    (:func:`~repro.obs.span.span_to_payload` form, worker
    ``time.monotonic`` clock) plus the worker's clock reading at send
    time, so the supervisor can rebase the tree into its own timeline;
    anything else the supervisor learns from the process sentinel.
    """
    from .executor import execute_request

    try:
        conn.send(("ready",))
    except OSError:
        return
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg is None:
            return
        key, request, attempt = msg
        action = plan.worker_action(key, attempt) if plan is not None \
            else None
        if action == CRASH:
            os._exit(CRASH_EXIT_CODE)
        if action == HANG:
            time.sleep(plan.hang_seconds)
        tracer = Tracer(clock=time.monotonic)
        try:
            with tracer.span("exec"):
                if action == RAISE:
                    raise InjectedFault(
                        f"injected transient fault (attempt {attempt})")
                summary = execute_request(request, tracer=tracer)
        except Exception as exc:  # crashes bypass this; see sentinel
            spans = span_to_payload(tracer.roots[0]) if tracer.roots \
                else None
            reply = ("err", key, type(exc).__name__, str(exc), spans,
                     time.monotonic())
        else:
            spans = span_to_payload(tracer.roots[0]) if tracer.roots \
                else None
            reply = ("ok", key, summary, spans, time.monotonic())
        try:
            conn.send(reply)
        except OSError:
            return


@dataclass
class _Attempt:
    key: str
    request: ExperimentRequest
    number: int          # 1-based
    ready_at: float = 0.0
    #: the open ``attempt`` span, created at dispatch
    span: Span | None = None


class _Worker:
    """One supervised child process plus its command pipe."""

    __slots__ = ("process", "conn", "ready", "fresh")

    def __init__(self, ctx, plan: FaultPlan | None):
        #: set once the worker's ``("ready",)`` announcement is read;
        #: attempt deadlines only run against ready workers
        self.ready = False
        #: spawned on demand by the :meth:`WorkerPool.acquire` that
        #: leased it: its first dispatch pays the interpreter spawn
        self.fresh = True
        parent, child = ctx.Pipe()
        try:
            self.process = ctx.Process(target=worker_main,
                                       args=(child, plan), daemon=True)
            self.process.start()
        except BaseException:
            parent.close()
            child.close()
            raise
        child.close()
        self.conn = parent

    @property
    def sentinel(self):
        return self.process.sentinel

    def kill(self) -> None:
        """Terminate promptly; escalate to SIGKILL if needed."""
        try:
            self.process.terminate()
        except (OSError, ValueError):
            pass
        self.process.join(timeout=5)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=5)
        self.close()

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass


@dataclass
class PoolStats:
    """Lifetime accounting for one :class:`WorkerPool`."""

    #: worker processes successfully spawned
    spawned: int = 0
    #: dispatches served by a worker that already existed
    reused: int = 0
    #: spawn attempts the OS refused
    spawn_failures: int = 0
    #: leased workers that were killed instead of returned (crash,
    #: timeout, shutdown reclaim)
    discarded: int = 0


class WorkerPool:
    """A reusable pool of supervised ``spawn`` worker processes.

    The pool owns process creation and idle reuse; a per-batch
    :class:`_Supervisor` borrows workers through :meth:`acquire` /
    :meth:`release` and the pool keeps healthy workers alive between
    batches.  This is the allocation server's warm-pool core: the
    server spawns all ``size`` workers up front (:meth:`prespawn`), or
    else the first batch pays them; every later batch leases
    already-live workers (``stats.reused``) and spawns only to replace
    workers lost to crashes or timeout kills.

    Not thread-safe: one supervisor drives the pool at a time (the
    engine serializes ``run_many`` calls, and the server funnels every
    batch through one dispatcher).
    """

    def __init__(self, size: int, plan: FaultPlan | None = None):
        self.size = max(1, size)
        self.plan = plan
        self.ctx = multiprocessing.get_context("spawn")
        self.idle: list[_Worker] = []
        self.leased = 0
        self.stats = PoolStats()
        self.consecutive_spawn_failures = 0
        self.closed = False
        self._spawn_attempts = 0

    def has_worker_for_lease(self) -> bool:
        """Whether :meth:`acquire` could hand out a worker right now."""
        return bool(self.idle) or self.leased + len(self.idle) < self.size

    def acquire(self) -> _Worker | None:
        """Lease an idle worker, spawning one if the pool is under its
        size; ``None`` means the spawn failed (counted — check
        :attr:`consecutive_spawn_failures` for pool health)."""
        while self.idle:
            worker = self.idle.pop()
            if worker.process.is_alive():
                self.leased += 1
                self.stats.reused += 1
                return worker
            worker.kill()   # died while idle: reap and replace below
        worker = self._spawn()
        if worker is not None:
            self.leased += 1
        return worker

    def prespawn(self) -> int:
        """Spawn idle workers until the pool holds ``size``, without
        waiting for their imports; returns how many were spawned.  A
        failed spawn is counted like any other and ends the call — the
        next :meth:`acquire` spawns on demand as before."""
        spawned = 0
        while self.leased + len(self.idle) < self.size:
            worker = self._spawn()
            if worker is None:
                break
            worker.fresh = False    # spawned ahead of any dispatch
            self.idle.append(worker)
            spawned += 1
        return spawned

    def _spawn(self) -> _Worker | None:
        self._spawn_attempts += 1
        try:
            if self.plan is not None \
                    and self._spawn_attempts <= self.plan.spawn_failures:
                raise OSError("injected spawn failure")
            worker = _Worker(self.ctx, self.plan)
        except OSError:
            self.stats.spawn_failures += 1
            self.consecutive_spawn_failures += 1
            return None
        self.consecutive_spawn_failures = 0
        self.stats.spawned += 1
        return worker

    def release(self, worker: _Worker) -> None:
        """Return a healthy leased worker for reuse."""
        self.leased -= 1
        if self.closed:
            worker.kill()
        else:
            self.idle.append(worker)

    def discard(self, worker: _Worker) -> None:
        """Account for a leased worker the caller killed (or found
        dead); the pool will spawn a replacement on demand."""
        self.leased -= 1
        self.stats.discarded += 1

    def close(self) -> None:
        """Kill every idle worker; later releases kill instead of
        re-idling.  Safe to call more than once."""
        self.closed = True
        for worker in self.idle:
            worker.kill()
        self.idle.clear()


class _Supervisor:
    """The event loop: dispatch, watch, retry, quarantine, degrade."""

    def __init__(self, config: SupervisorConfig, workers: int,
                 plan: FaultPlan | None, on_result,
                 pool: WorkerPool | None = None,
                 deadlines: dict[str, float] | None = None):
        self.config = config
        self.workers_target = max(1, workers)
        self.plan = plan
        self.on_result = on_result
        self.deadlines = deadlines or {}
        self.owns_pool = pool is None
        # a borrowed pool executes even single-request batches on its
        # (warm) workers; only a pool-less serial supervisor runs
        # in-process by request
        self.serial = pool is None and self.workers_target <= 1
        self.pool = pool if pool is not None else (
            None if self.serial else WorkerPool(self.workers_target, plan))
        self.stats = SupervisedStats()
        self.results: dict[str, AllocationSummary | ExperimentFailure] = {}
        self.history: dict[str, list[str]] = {}
        self.runnable: deque[_Attempt] = deque()
        self.delayed: list[_Attempt] = []
        self.busy: dict[_Worker, tuple[_Attempt, float | None]] = {}
        self.outstanding = 0
        self.delivered = 0
        self.fallback = False

    # -- driving ---------------------------------------------------------------

    def run(self, items: list[tuple[str, ExperimentRequest]]
            ) -> dict[str, AllocationSummary | ExperimentFailure]:
        for key, request in items:
            self.runnable.append(_Attempt(key, request, 1))
            self.history[key] = []
        self.outstanding = len(items)
        if self.serial:
            # requested serial mode, not a degradation
            self._drain_serial()
            return self.results
        assert self.pool is not None
        spawned_before = self.pool.stats.spawned
        reused_before = self.pool.stats.reused
        try:
            while self.outstanding:
                now = time.monotonic()
                self._promote(now)
                self._fill(now)
                if self.fallback:
                    self._reclaim_busy()
                    self._drain_serial()
                    break
                self._wait()
        finally:
            self._shutdown()
            self.stats.worker_spawns = \
                self.pool.stats.spawned - spawned_before
            self.stats.workers_reused = \
                self.pool.stats.reused - reused_before
        return self.results

    def _promote(self, now: float) -> None:
        """Move backoff-delayed retries whose time has come."""
        due = [a for a in self.delayed if a.ready_at <= now]
        if due:
            self.delayed = [a for a in self.delayed if a.ready_at > now]
            for attempt in sorted(due, key=lambda a: a.ready_at):
                self.runnable.append(attempt)

    def _deadline_of(self, key: str) -> float | None:
        return self.deadlines.get(key)

    def _expire(self, attempt: _Attempt) -> None:
        """Answer a request whose end-to-end deadline passed before (or
        during) this attempt — a definitive ``DeadlineExpired``, never
        retried: the requester has already stopped waiting."""
        self.stats.expired += 1
        self.history[attempt.key].append(
            f"attempt {attempt.number}: DeadlineExpired: end-to-end "
            f"deadline passed [expired]")
        self._deliver(attempt.key, ExperimentFailure(
            key=attempt.key, request=attempt.request,
            error_class="DeadlineExpired",
            message="end-to-end deadline passed before completion",
            attempts=attempt.number - 1, worker_fate="expired",
            attempt_errors=list(self.history[attempt.key])))

    def _fill(self, now: float) -> None:
        """Hand runnable attempts to pool workers (idle or spawned)."""
        while self.runnable and not self.fallback:
            deadline = self._deadline_of(self.runnable[0].key)
            if deadline is not None and now >= deadline:
                self._expire(self.runnable.popleft())
                continue
            if len(self.busy) >= self.workers_target \
                    or not self.pool.has_worker_for_lease():
                break
            acquire_started = time.monotonic()
            worker = self.pool.acquire()
            if worker is None:
                self.stats.spawn_failures += 1
                if self.pool.consecutive_spawn_failures \
                        >= self.config.max_spawn_failures:
                    self.fallback = True
                    self.stats.fallback_serial += 1
                break
            self._dispatch(worker, self.runnable.popleft(),
                           time.monotonic(), acquire_started)

    def _dispatch(self, worker: _Worker, attempt: _Attempt,
                  now: float, acquire_started: float | None = None
                  ) -> None:
        # a freshly spawned worker is still importing; its deadline is
        # armed when the ready announcement arrives (_on_message) — but
        # an end-to-end request deadline binds from dispatch regardless
        deadline = (now + self.config.timeout
                    if self.config.timeout is not None and worker.ready
                    else None)
        key_deadline = self._deadline_of(attempt.key)
        if key_deadline is not None:
            deadline = key_deadline if deadline is None \
                else min(deadline, key_deadline)
        span = Span("attempt", {"number": attempt.number},
                    start=acquire_started if acquire_started is not None
                    else now)
        if not worker.ready:
            if worker.fresh and acquire_started is not None:
                # acquire() paid an interpreter spawn for this dispatch
                span.children.append(
                    Span("spawn", start=acquire_started, end=now))
            # closed when the worker's ready announcement arrives
            span.children.append(Span("handshake", start=now, end=now))
        worker.fresh = False
        attempt.span = span
        self.busy[worker] = (attempt, deadline)
        try:
            worker.conn.send((attempt.key, attempt.request, attempt.number))
        except OSError:
            self._on_crash(worker)

    def _close_attempt(self, attempt: _Attempt, now: float, outcome: str,
                       exec_payload: dict | None = None,
                       worker_clock: float | None = None) -> None:
        """Finish the attempt's span: stamp the outcome, graft the
        rebased worker-side ``exec`` subtree, record the observation."""
        span = attempt.span
        if span is None:  # pragma: no cover - dispatch always sets one
            return
        span.end = now
        span.attrs["outcome"] = outcome
        if exec_payload is not None:
            exec_span = span_from_payload(exec_payload)
            if worker_clock is not None:
                # align the worker's send-time with our receive-time;
                # the residual transport delay is clamped away below
                shift_span(exec_span, now - worker_clock)
            clamp_span(exec_span, span.start, span.end)
            span.children.append(exec_span)
        observation = self.stats.observations.setdefault(
            attempt.key, AttemptObservation())
        observation.attempts += 1
        observation.spans.append(span)

    def _wait(self) -> None:
        """Block until a result, a corpse, a deadline, or a retry is due."""
        now = time.monotonic()
        wakeups = [d for _, d in self.busy.values() if d is not None]
        wakeups += [a.ready_at for a in self.delayed]
        timeout = max(0.0, min(wakeups) - now) if wakeups else None
        if not self.busy:
            if timeout:
                time.sleep(timeout)
            return
        objs: list = []
        for worker in self.busy:
            objs.append(worker.conn)
            objs.append(worker.sentinel)
        ready = set(connection_wait(objs, timeout))
        for worker in list(self.busy):
            if worker not in self.busy:
                continue
            if worker.conn in ready:
                self._on_message(worker)
            elif worker.sentinel in ready:
                self._on_crash(worker)
        now = time.monotonic()
        for worker, (_, deadline) in list(self.busy.items()):
            if deadline is not None and now >= deadline:
                self._on_timeout(worker)

    # -- outcomes --------------------------------------------------------------

    def _on_message(self, worker: _Worker) -> None:
        attempt, _ = self.busy.pop(worker)
        try:
            msg = worker.conn.recv()
        except (EOFError, OSError):
            self._crashed(worker, attempt)
            return
        now = time.monotonic()
        if msg[0] == "ready":
            # spawn + import finished: the attempt deadline starts now
            worker.ready = True
            if attempt.span is not None:
                handshake = attempt.span.child("handshake")
                if handshake is not None:
                    handshake.end = now
            deadline = (now + self.config.timeout
                        if self.config.timeout is not None else None)
            key_deadline = self._deadline_of(attempt.key)
            if key_deadline is not None:
                deadline = key_deadline if deadline is None \
                    else min(deadline, key_deadline)
            self.busy[worker] = (attempt, deadline)
            return
        self.pool.release(worker)
        if msg[0] == "ok":
            self._close_attempt(attempt, now, "ok",
                                exec_payload=msg[3], worker_clock=msg[4])
            self._deliver(msg[1], msg[2])
        else:
            _, _key, error_class, message, exec_payload, clock = msg
            self._close_attempt(attempt, now, "exception",
                                exec_payload=exec_payload,
                                worker_clock=clock)
            self._failed_attempt(attempt, error_class, message,
                                 fate="exception")

    def _on_crash(self, worker: _Worker) -> None:
        attempt, _ = self.busy.pop(worker)
        # the worker may have replied *and then* died — don't lose the
        # result, and don't re-execute a completed request
        while worker.conn.poll(0):
            try:
                msg = worker.conn.recv()
            except (EOFError, OSError):
                break
            if msg is not None and msg[0] == "ready":
                continue  # a reply may still be queued behind it
            if msg is not None and msg[0] == "ok":
                self.stats.worker_crashes += 1
                worker.close()
                self.pool.discard(worker)
                self._close_attempt(attempt, time.monotonic(), "ok",
                                    exec_payload=msg[3],
                                    worker_clock=msg[4])
                self._deliver(msg[1], msg[2])
                return
            break
        self._crashed(worker, attempt)

    def _crashed(self, worker: _Worker, attempt: _Attempt) -> None:
        # reap first: exitcode is None until the dead child is joined
        worker.process.join(timeout=5)
        code = worker.process.exitcode
        worker.kill()
        self.pool.discard(worker)
        self.stats.worker_crashes += 1
        self._close_attempt(attempt, time.monotonic(), "crashed")
        self._failed_attempt(attempt, "WorkerCrash",
                             f"worker process died (exit code {code})",
                             fate="crashed")

    def _on_timeout(self, worker: _Worker) -> None:
        attempt, _ = self.busy.pop(worker)
        worker.kill()
        self.pool.discard(worker)
        now = time.monotonic()
        key_deadline = self._deadline_of(attempt.key)
        if key_deadline is not None and now >= key_deadline:
            # the *request's* deadline fired, not the attempt budget:
            # kill the worker but answer expired, never retry
            self._close_attempt(attempt, now, "expired")
            self._expire(attempt)
            return
        self.stats.timeouts += 1
        self._close_attempt(attempt, now, "killed")
        self._failed_attempt(
            attempt, "Timeout",
            f"no result within {self.config.timeout:.4g}s", fate="killed")

    def _failed_attempt(self, attempt: _Attempt, error_class: str,
                        message: str, fate: str) -> None:
        self.history[attempt.key].append(
            f"attempt {attempt.number}: {error_class}: {message} [{fate}]")
        if attempt.number >= self.config.max_attempts:
            self.stats.quarantined += 1
            self._deliver(attempt.key, ExperimentFailure(
                key=attempt.key, request=attempt.request,
                error_class=error_class, message=message,
                attempts=attempt.number, worker_fate=fate,
                attempt_errors=list(self.history[attempt.key])))
            return
        self.stats.retries += 1
        delay = self.config.backoff * (2 ** (attempt.number - 1))
        self.delayed.append(_Attempt(attempt.key, attempt.request,
                                     attempt.number + 1,
                                     time.monotonic() + delay))

    def _deliver(self, key: str,
                 outcome: AllocationSummary | ExperimentFailure) -> None:
        self.results[key] = outcome
        self.outstanding -= 1
        self.delivered += 1
        if self.on_result is not None:
            self.on_result(key, outcome)
        if self.plan is not None \
                and self.plan.interrupt_after is not None \
                and self.delivered >= self.plan.interrupt_after:
            raise KeyboardInterrupt

    # -- degraded / serial path ------------------------------------------------

    def _reclaim_busy(self) -> None:
        """Take in-flight requests back (uncharged) before going serial."""
        for worker, (attempt, _) in list(self.busy.items()):
            worker.kill()
            self.pool.discard(worker)
            self.runnable.appendleft(attempt)
        self.busy.clear()

    def _drain_serial(self) -> None:
        """Finish every unresolved request in-process.

        Timeouts cannot be enforced here (``hang`` faults are ignored);
        ``crash``/``raise`` faults surface as transient exceptions so
        retry and quarantine semantics still hold.
        """
        from .executor import execute_request

        pending = list(self.runnable) \
            + sorted(self.delayed, key=lambda a: a.ready_at)
        self.runnable.clear()
        self.delayed.clear()
        for attempt in pending:
            deadline = self._deadline_of(attempt.key)
            if deadline is not None and time.monotonic() >= deadline:
                self._expire(attempt)
                continue
            number = attempt.number
            while True:
                action = self.plan.worker_action(attempt.key, number) \
                    if self.plan is not None else None
                tracer = Tracer(clock=time.monotonic)
                try:
                    with tracer.span("attempt", number=number):
                        if action in (CRASH, RAISE):
                            raise InjectedFault(
                                f"injected {action} (attempt {number})")
                        with tracer.span("exec"):
                            summary = execute_request(attempt.request,
                                                      tracer=tracer)
                except KeyboardInterrupt:
                    raise
                except Exception as exc:
                    self._record_serial_attempt(attempt.key, tracer,
                                                "exception")
                    error_class, message = type(exc).__name__, str(exc)
                    self.history[attempt.key].append(
                        f"attempt {number}: {error_class}: {message} "
                        f"[in-process]")
                    if number >= self.config.max_attempts:
                        self.stats.quarantined += 1
                        self._deliver(attempt.key, ExperimentFailure(
                            key=attempt.key, request=attempt.request,
                            error_class=error_class, message=message,
                            attempts=number, worker_fate="in-process",
                            attempt_errors=list(
                                self.history[attempt.key])))
                        break
                    self.stats.retries += 1
                    if self.config.backoff:
                        time.sleep(self.config.backoff
                                   * (2 ** (number - 1)))
                    number += 1
                else:
                    self._record_serial_attempt(attempt.key, tracer, "ok")
                    self._deliver(attempt.key, summary)
                    break

    def _record_serial_attempt(self, key: str, tracer: Tracer,
                               outcome: str) -> None:
        """Record an in-process attempt span (same shape as pooled
        attempts, minus spawn/handshake children)."""
        if not tracer.roots:  # pragma: no cover - span always opens
            return
        span = tracer.roots[0]
        span.attrs["outcome"] = outcome
        observation = self.stats.observations.setdefault(
            key, AttemptObservation())
        observation.attempts += 1
        observation.spans.append(span)

    def _shutdown(self) -> None:
        """Kill in-flight workers promptly (also the KeyboardInterrupt
        path); an owned pool dies with the batch, a borrowed one keeps
        its idle workers warm for the next batch."""
        for worker in list(self.busy):
            worker.kill()
            self.pool.discard(worker)
        self.busy.clear()
        if self.owns_pool and self.pool is not None:
            self.pool.close()


def run_supervised(items: list[tuple[str, ExperimentRequest]],
                   workers: int,
                   config: SupervisorConfig | None = None,
                   plan: FaultPlan | None = None,
                   on_result=None,
                   pool: WorkerPool | None = None,
                   deadlines: dict[str, float] | None = None,
                   ) -> tuple[dict[str, AllocationSummary
                                   | ExperimentFailure], SupervisedStats]:
    """Execute *items* (``(key, request)`` pairs, unique keys) under
    supervision; returns per-key outcomes plus the fault accounting.

    ``workers <= 1`` runs serially in-process (no worker processes, no
    timeout enforcement) with the same retry/quarantine semantics —
    unless *pool* is given, in which case even one-request batches run
    on the pool's (warm) workers and the pool survives the batch.
    ``on_result(key, outcome)`` fires as each outcome lands — before
    the batch finishes, and before any ``KeyboardInterrupt`` unwinds.

    *deadlines* maps request keys to absolute ``time.monotonic``
    deadlines (this process's clock).  A request whose deadline passes
    before dispatch is answered ``DeadlineExpired`` without executing;
    one whose deadline fires mid-attempt has its worker killed and is
    answered ``DeadlineExpired`` with no retry — the requester has
    already stopped waiting, so more attempts only burn the pool.
    """
    supervisor = _Supervisor(config or SupervisorConfig(), workers,
                             plan, on_result, pool=pool,
                             deadlines=deadlines)
    outcomes = supervisor.run(items)
    return outcomes, supervisor.stats
