"""Fair admission: a greedy tenant cannot starve a polite one.

The router meters each declared ``client`` identity through its own
token bucket, so a client flooding ten connections gets throttled
(typed ``overload`` with a ``retry_after`` hint) while a well-behaved
client's latency stays put.
"""

import threading

from repro.engine import ExperimentEngine
from repro.ir import function_to_text
from repro.serve import (LoadReport, RouterConfig, RouterThread,
                         ServeClient, ServerThread, run_load)

from ..helpers import single_loop

LOOP_TEXT = function_to_text(single_loop())

POLITE_SPEC = {"ir_text": LOOP_TEXT, "int_regs": 4, "args": [0]}
GREEDY_SPEC = {"ir_text": LOOP_TEXT, "int_regs": 4, "args": [1]}

POLITE_REQUESTS = 40
GREEDY_REQUESTS = POLITE_REQUESTS * 10


def polite_load(port: int) -> LoadReport:
    # paced by its own send rate, at most half the router's 100 req/s
    # bucket, whatever the server's latency
    return run_load("127.0.0.1", port, [POLITE_SPEC], clients=1,
                    total_requests=POLITE_REQUESTS,
                    client_ids=["polite"], think_time=0.02)


def test_polite_client_p99_survives_a_greedy_neighbour():
    engine = ExperimentEngine(jobs=1, use_cache=False)
    config = RouterConfig(ping_interval=0.02, bucket_rate=100.0,
                          bucket_burst=20.0)
    with ServerThread(engine) as srv:
        backends = {"b0": ("127.0.0.1", srv.port)}
        with RouterThread(backends, config) as rt:
            # warm both keys so backend latency is memo-flat and the
            # measurement isolates the router's admission behaviour
            with ServeClient("127.0.0.1", rt.port) as warm:
                warm.allocate(**POLITE_SPEC)
                warm.allocate(**GREEDY_SPEC)

            solo = polite_load(rt.port)
            assert solo.ok == POLITE_REQUESTS and solo.failed == 0

            # now the same polite run, next to a tenant driving 10x
            # the traffic over ten connections under one identity
            reports = {}

            def greedy() -> None:
                reports["greedy"] = run_load(
                    "127.0.0.1", rt.port, [GREEDY_SPEC], clients=10,
                    total_requests=GREEDY_REQUESTS,
                    client_ids=["greedy"])

            flood = threading.Thread(target=greedy)
            flood.start()
            try:
                contended = polite_load(rt.port)
            finally:
                flood.join(timeout=120)

            with ServeClient("127.0.0.1", rt.port) as probe:
                counters = probe.metrics()["counters"]

    greedy_report = reports["greedy"]
    assert contended.ok == POLITE_REQUESTS and contended.failed == 0
    assert greedy_report.ok == GREEDY_REQUESTS

    # the router throttled the flood, not the polite tenant
    assert counters["router.throttled"] > 0
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
