"""Fair admission: a greedy tenant cannot starve a polite one.

The server meters each declared ``client`` identity through its own
token bucket, so a client flooding ten connections gets throttled
(typed ``overload`` with a ``retry_after`` hint) while a well-behaved
client's latency stays put.  Requests without a ``client`` are not
metered.
"""

import asyncio
import threading

import pytest

from repro.engine import ExperimentEngine
from repro.ir import function_to_text
from repro.serve import (AllocationServer, LoadReport, ServeClient,
                         ServeConfig, ServerThread, TokenBucket,
                         run_load)
from repro.serve.protocol import encode_line
from repro.serve.server import (CLIENT_BUCKETS_SWEEP, CLIENT_BURST,
                               CLIENT_RATE)

from ..helpers import single_loop

LOOP_TEXT = function_to_text(single_loop())

POLITE_SPEC = {"ir_text": LOOP_TEXT, "int_regs": 4, "args": [0]}
GREEDY_SPEC = {"ir_text": LOOP_TEXT, "int_regs": 4, "args": [1]}

POLITE_REQUESTS = 40
GREEDY_REQUESTS = POLITE_REQUESTS * 10


class TestTokenBucket:
    def test_burst_admits_then_throttles_with_a_hint(self):
        bucket = TokenBucket(rate=10.0, burst=2.0, now=0.0)
        assert bucket.admit(now=0.0) == 0.0
        assert bucket.admit(now=0.0) == 0.0
        wait = bucket.admit(now=0.0)
        assert wait == pytest.approx(0.1)   # one token at 10/s

    def test_tokens_refill_over_time_up_to_burst(self):
        bucket = TokenBucket(rate=10.0, burst=2.0, now=0.0)
        bucket.admit(now=0.0)
        bucket.admit(now=0.0)
        assert bucket.admit(now=0.05) > 0.0   # only half a token back
        assert bucket.admit(now=10.0) == 0.0  # refilled (capped at burst)
        assert bucket.tokens <= bucket.burst


def test_per_client_token_bucket_throttles_the_flood():
    """A tenant out of tokens is answered ``overload`` with a hint and
    never reaches admission; other tenants and requests without a
    ``client`` are untouched."""
    def line(request_id: str, client: str | None = None) -> bytes:
        envelope = {"v": 2, "id": request_id, "op": "allocate",
                    "request": POLITE_SPEC}
        if client is not None:
            envelope["client"] = client
        return encode_line(envelope)

    async def scenario():
        server = AllocationServer(ExperimentEngine(jobs=1, use_cache=False),
                                  ServeConfig())
        batcher = asyncio.ensure_future(server._batcher())
        # a bucket this slow refills nothing within the test
        server.buckets["tenant-a"] = TokenBucket(rate=0.001, burst=1.0)
        first = await server._respond(line("a1", "tenant-a"))
        second = await server._respond(line("a2", "tenant-a"))
        other = await server._respond(line("b1", "tenant-b"))
        anonymous = await server._respond(line("v1"))
        await server.queue.put(None)
        await batcher
        return server, first, second, other, anonymous

    server, first, second, other, anonymous = asyncio.run(scenario())
    assert first["ok"] is True
    assert second["ok"] is False
    error = second["error"]
    assert error["kind"] == "overload"
    assert "tenant-a" in error["message"]
    assert error["retry_after"] > 0
    assert other["ok"] is True and anonymous["ok"] is True
    counters = server.metrics.counters()
    assert counters["serve.throttled"] == 1
    assert counters["serve.op.allocate"] == 4
    assert "serve.overload_rejections" not in counters
    # a fresh tenant starts with the default bucket; v1 traffic none
    assert (server.buckets["tenant-b"].rate,
            server.buckets["tenant-b"].burst) == (CLIENT_RATE, CLIENT_BURST)
    assert set(server.buckets) == {"tenant-a", "tenant-b"}


def test_refilled_buckets_are_dropped_but_a_throttled_one_stays():
    """Distinct ``client`` values cannot grow the bucket table without
    bound: past a fixed size, buckets that have refilled to their burst
    (which admit like fresh ones) are dropped.  A throttled client's
    bucket is not full, so it survives and the client stays
    throttled."""
    server = AllocationServer(ExperimentEngine(jobs=1, use_cache=False),
                              ServeConfig())
    server.buckets["greedy"] = TokenBucket(rate=0.001, burst=1.0, now=0.0)
    assert server._throttle("greedy", now=0.0) == 0.0
    assert server._throttle("greedy", now=0.0) > 0.0
    for i in range(10_000):
        # 10 ms apart: each earlier one-shot bucket has refilled
        assert server._throttle(f"tenant-{i}", now=0.01 * i) == 0.0
        assert len(server.buckets) <= CLIENT_BUCKETS_SWEEP
    assert "greedy" in server.buckets
    assert server._throttle("greedy", now=100.0) > 0.0


def polite_load(port: int) -> LoadReport:
    # paced by its own send rate, at most a tenth of the server's
    # per-client rate, whatever the server's latency
    return run_load("127.0.0.1", port, [POLITE_SPEC], clients=1,
                    total_requests=POLITE_REQUESTS,
                    client_ids=["polite"], think_time=0.02)


def test_polite_client_p99_survives_a_greedy_neighbour():
    engine = ExperimentEngine(jobs=1, use_cache=False)
    with ServerThread(engine) as srv:
        # warm both keys so execution is memo-flat and the measurement
        # isolates the server's admission behaviour
        with ServeClient("127.0.0.1", srv.port) as warm:
            warm.allocate(**POLITE_SPEC)
            warm.allocate(**GREEDY_SPEC)

        solo = polite_load(srv.port)
        assert solo.ok == POLITE_REQUESTS and solo.failed == 0

        # now the same polite run, next to a tenant driving 10x
        # the traffic over ten connections under one identity
        reports = {}

        def greedy() -> None:
            reports["greedy"] = run_load(
                "127.0.0.1", srv.port, [GREEDY_SPEC], clients=10,
                total_requests=GREEDY_REQUESTS,
                client_ids=["greedy"])

        flood = threading.Thread(target=greedy)
        flood.start()
        try:
            contended = polite_load(srv.port)
        finally:
            flood.join(timeout=120)

        with ServeClient("127.0.0.1", srv.port) as probe:
            counters = probe.metrics()["counters"]

    greedy_report = reports["greedy"]
    assert contended.ok == POLITE_REQUESTS and contended.failed == 0
    assert greedy_report.ok == GREEDY_REQUESTS

    # the server throttled the flood, not the polite tenant
    assert counters["serve.throttled"] > 0
    assert greedy_report.rejected > 0
    assert contended.rejected == 0

    # the acceptance bar: polite p99 within 2x of its solo p99.  The
    # absolute floor absorbs scheduler jitter: warm round-trips sit in
    # the ~10ms range on a busy machine, where the 2x ratio alone is
    # noise — an unthrottled 10x flood degrades far past the floor.
    solo_p99 = solo.client_latency_ms("polite", 99)
    contended_p99 = contended.client_latency_ms("polite", 99)
    assert contended_p99 <= max(2.0 * solo_p99, 25.0), \
        f"polite p99 {contended_p99:.3f}ms vs solo {solo_p99:.3f}ms"
