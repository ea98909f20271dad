"""``repro top`` — a live dashboard over the ``metrics`` protocol op.

Polls a running allocation server and renders the numbers an operator
watches: request and execution rates (derived from successive counter
snapshots), server-side latency quantiles (the bucketed
``serve.request_seconds`` histogram — the same p50/p99 the Prometheus
endpoint exposes), queue depth and in-flight dedup, cache hit ratio,
warm-pool spawn/reuse, and the per-phase p50 breakdown.  The
rejection counts on the ``requests`` line include fair admission's
``throttled``.

Pure rendering over snapshots: :func:`render_dashboard` takes the
current (and optionally previous) ``metrics`` result, so tests feed it
canned snapshots and the CLI loop stays trivial.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable

from ..obs.metrics import render_prometheus
from .client import ServeClient

#: the contiguous lifecycle phases, dashboard order
_PHASES = ("parse", "admission", "queue_wait", "batch_wait", "execute",
           "respond")


def format_seconds(value: float) -> str:
    """A latency with a human unit: ``17µs`` / ``4.2ms`` / ``1.31s``."""
    if value < 1e-3:
        return f"{value * 1e6:.0f}µs"
    if value < 1.0:
        return f"{value * 1e3:.1f}ms"
    return f"{value:.2f}s"


def _rate(current: dict, previous: dict | None, name: str,
          interval: float | None) -> float | None:
    if previous is None or not interval or interval <= 0:
        return None
    now = current.get("counters", {}).get(name, 0)
    then = previous.get("counters", {}).get(name, 0)
    return max(0.0, (now - then) / interval)


def render_dashboard(snapshot: dict[str, Any],
                     previous: dict[str, Any] | None = None,
                     interval: float | None = None) -> str:
    """The ``repro top`` table for one ``metrics`` snapshot.

    *previous* and *interval* (seconds between the two snapshots)
    enable the derived per-second rates; without them the rate columns
    are omitted.
    """
    counters = snapshot.get("counters", {})
    histograms = snapshot.get("histograms", {})

    def c(name: str) -> int:
        return counters.get(name, 0)

    lines: list[str] = []
    req_rate = _rate(snapshot, previous, "serve.requests", interval)
    exec_rate = _rate(snapshot, previous, "engine.executed", interval)
    rate = "" if req_rate is None else f"   {req_rate:.1f} req/s"
    lines.append(
        f"requests   {c('serve.requests'):>8}{rate}   "
        f"bad {c('serve.bad_requests')}  "
        f"overload {c('serve.overload_rejections')}  "
        f"throttled {c('serve.throttled')}  "
        f"draining {c('serve.drain_rejections')}")

    latency = histograms.get("serve.request_seconds") or {}
    if latency.get("count"):
        lines.append(
            f"latency    p50 {format_seconds(latency['p50'])}  "
            f"p90 {format_seconds(latency['p90'])}  "
            f"p99 {format_seconds(latency['p99'])}  "
            f"max {format_seconds(latency['max'])}  "
            f"(n={latency['count']})")
    else:
        lines.append("latency    (no requests observed)")

    lines.append(
        f"queue      {snapshot.get('queue_depth', 0)} queued   "
        f"{snapshot.get('inflight', 0)} in flight   "
        f"dedup {c('serve.deduplicated')}")

    batch = histograms.get("serve.batch_size") or {}
    mean = (batch.get("total", 0.0) / batch["count"]) \
        if batch.get("count") else 0.0
    lines.append(f"batches    {c('serve.batches'):>8}   "
                 f"avg size {mean:.1f}")

    answered = (c("engine.memo_hits") + c("engine.cache_hits")
                + c("engine.executed"))
    hit_ratio = ((c("engine.memo_hits") + c("engine.cache_hits"))
                 / answered if answered else 0.0)
    exec_part = "" if exec_rate is None else f"   {exec_rate:.1f} exec/s"
    lines.append(
        f"engine     memo {c('engine.memo_hits')}  "
        f"cache {c('engine.cache_hits')}  "
        f"executed {c('engine.executed')}  "
        f"hit ratio {hit_ratio:.0%}{exec_part}")

    lines.append(
        f"faults     retries {c('engine.retries')}  "
        f"timeouts {c('engine.timeouts')}  "
        f"crashes {c('engine.worker_crashes')}  "
        f"quarantined {c('engine.quarantined')}")

    lines.append(
        f"pool       size {c('pool.size')}  "
        f"spawned {c('pool.spawned')}  "
        f"reused {c('pool.reused')}  "
        f"discarded {c('pool.discarded')}")

    phases = []
    for name in _PHASES:
        snap = histograms.get(f"serve.phase.{name}") or {}
        if snap.get("count"):
            phases.append(f"{name} {format_seconds(snap['p50'])}")
    if phases:
        lines.append("phase p50  " + "  ".join(phases))
    return "\n".join(lines)


def run_top(host: str, port: int, interval: float = 2.0,
            iterations: int = 0, fmt: str = "table",
            out: Callable[[str], None] = print,
            sleep: Callable[[float], None] = time.sleep) -> int:
    """Poll the server's ``metrics`` op and render until interrupted.

    ``iterations`` bounds the number of polls (0 = forever); *out* and
    *sleep* are injectable for tests.  Returns an exit code.
    """
    previous: dict[str, Any] | None = None
    polls = 0
    with ServeClient(host, port) as client:
        while True:
            snapshot = client.metrics()
            if fmt == "json":
                out(json.dumps(snapshot, sort_keys=True))
            elif fmt == "prom":
                out(render_prometheus(snapshot))
            else:
                out(render_dashboard(
                    snapshot, previous,
                    interval if previous is not None else None))
            previous = snapshot
            polls += 1
            if iterations and polls >= iterations:
                return 0
            sleep(interval)
