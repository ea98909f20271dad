"""The seeded chaos suite: real backend processes, injected faults.

The contract under fire: every admitted request is answered exactly
once (the strict request/response protocol plus router failover) or
failed with a typed error; every answer is byte-identical to a
fault-free run; and the cluster returns to full health afterwards.
"""

import json
import socket
import threading
import time
from concurrent import futures

from repro.engine import ExperimentEngine, ServeFaultPlan, request_key
from repro.ir import function_to_text
from repro.serve import (ClusterConfig, ClusterHarness, HashRing,
                         ResilientClient, RouterConfig, ServeClient,
                         ServerThread, dumps, protocol,
                         request_from_json, summary_to_json)
from repro.serve.router import RouterThread

from ..helpers import single_loop

LOOP_TEXT = function_to_text(single_loop())
VIRTUAL_NODES = 32


def spec(n: int) -> dict:
    return {"ir_text": LOOP_TEXT, "int_regs": 4, "args": [n]}


def key_of(s: dict) -> str:
    return request_key(request_from_json(s))


def fault_free_answers(corpus: list[dict]) -> list[str]:
    engine = ExperimentEngine(jobs=1, use_cache=False)
    outcomes = engine.run_many([request_from_json(s) for s in corpus])
    return [dumps(summary_to_json(o)) for o in outcomes]


def router_config(**overrides) -> RouterConfig:
    base = dict(virtual_nodes=VIRTUAL_NODES, ping_interval=0.05,
                ping_timeout=1.0, breaker_base=0.02, breaker_cap=0.5,
                failover_attempts=2)
    base.update(overrides)
    return RouterConfig(**base)


def wait_for_health(port: int, want: int, timeout: float = 60.0) -> dict:
    deadline = time.monotonic() + timeout
    while True:
        with ServeClient("127.0.0.1", port, timeout=10) as probe:
            pong = probe.call("ping")
        if pong.get("healthy", 0) >= want:
            return pong
        assert time.monotonic() < deadline, \
            f"cluster stuck at {pong} before recovering to {want}"
        time.sleep(0.05)


def test_killed_dropped_and_garbled_backends_still_answer_exactly_once(
        tmp_path):
    """Kill both backends mid-request (plus one vanished and one
    corrupted reply): the router fails the work over, the supervisor
    restarts the corpses, every answer matches the fault-free run, and
    the cluster ends at full health."""
    corpus = [spec(n) for n in range(8)]
    expected = fault_free_answers(corpus)

    # pick one kill victim per backend, by the router's own ring
    ring = HashRing(["b0", "b1"], virtual_nodes=VIRTUAL_NODES)
    by_primary: dict[str, list[dict]] = {"b0": [], "b1": []}
    for s in corpus:
        by_primary[ring.primary(protocol.dumps(s))].append(s)
    assert by_primary["b0"] and by_primary["b1"], \
        "corpus must land work on both backends"
    kill_specs = [by_primary["b0"][0], by_primary["b1"][0]]
    survivors = [s for s in corpus if s not in kill_specs]
    drop_spec, garble_spec = survivors[0], survivors[1]

    state_dir = tmp_path / "faults"
    plan = ServeFaultPlan(
        state_dir=str(state_dir),
        kill_keys=frozenset(key_of(s) for s in kill_specs),
        drop_keys=frozenset({key_of(drop_spec)}),
        garble_keys=frozenset({key_of(garble_spec)}))
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan.to_json()))

    cluster_config = ClusterConfig(
        backends=2, jobs=1, cache_dir=tmp_path / "cache",
        serve_faults=plan_path)
    with ClusterHarness(cluster_config, router_config()) as cluster:
        client = ResilientClient("127.0.0.1", cluster.port,
                                 max_retries=12, backoff=0.05)
        with futures.ThreadPoolExecutor(len(corpus)) as pool:
            answers = list(pool.map(
                lambda s: dumps(client.allocate(**s)), corpus))

        # survivors (and retried victims) byte-identical to fault-free
        assert answers == expected

        # each injected fault fired exactly once, across restarts too
        assert plan.claimed("kill") == 2
        assert plan.claimed("drop") == 1
        assert plan.claimed("garble") == 1

        # both corpses were replaced and the cluster is whole again
        deadline = time.monotonic() + 60
        while cluster.supervisor.restarts < 2:
            assert time.monotonic() < deadline
            time.sleep(0.05)
        pong = wait_for_health(cluster.port, want=2)
        assert pong["backends"] == 2

        with ServeClient("127.0.0.1", cluster.port) as probe:
            counters = probe.metrics()["counters"]
        # kills + drop + garble each forced at least one failover
        assert counters["router.failovers"] >= 4
        assert counters["router.backend_restarts"] >= 2
        # and the cluster still answers the whole corpus afterwards
        again = [dumps(client.allocate(**s)) for s in corpus]
        assert again == expected


def test_hung_accept_loop_trips_the_breaker_then_recovers(tmp_path):
    """A wedged accept loop answers nothing new: only the router's
    fresh-connection probes can see it.  The breaker opens, the hang
    clears, probes re-admit the backend."""
    state_dir = tmp_path / "faults"
    plan = ServeFaultPlan(state_dir=str(state_dir),
                          hang_accept={"b0": 2.0})
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan.to_json()))

    cluster_config = ClusterConfig(
        backends=2, jobs=1, cache_dir=tmp_path / "cache",
        serve_faults=plan_path)
    # ClusterHarness.__enter__ already waits for full health, so the
    # breaker has opened and recovered by the time we get the port
    with ClusterHarness(cluster_config,
                        router_config(ping_timeout=0.3)) as cluster:
        assert plan.claimed("hang") == 1
        router = cluster.router
        assert router is not None
        counters = router.metrics.counters()
        assert counters["router.failed_probes"] >= 1
        assert counters["router.backend_recoveries"] >= 2
        state = router.backends["b0"]
        assert state.healthy and state.probes_failed >= 1

        client = ResilientClient("127.0.0.1", cluster.port,
                                 max_retries=8, backoff=0.05)
        corpus = [spec(n) for n in range(4)]
        assert [dumps(client.allocate(**s)) for s in corpus] \
            == fault_free_answers(corpus)


def test_slow_loris_client_does_not_starve_normal_traffic():
    """A connection trickling a never-finished request line must cost
    the router nothing: requests on other connections keep answering."""
    corpus = [spec(n) for n in range(3)]
    expected = fault_free_answers(corpus)
    with ServerThread(ExperimentEngine(jobs=1, use_cache=False)) as srv:
        backends = {"b0": ("127.0.0.1", srv.port)}
        with RouterThread(backends, router_config()) as rt:
            loris = socket.create_connection(("127.0.0.1", rt.port),
                                             timeout=30)
            stop = threading.Event()

            def trickle() -> None:
                fragment = b'{"v": 2, "id": "loris", "op": "allo'
                for byte in fragment:
                    if stop.is_set():
                        return
                    try:
                        loris.sendall(bytes([byte]))
                    except OSError:
                        return
                    time.sleep(0.02)

            drip = threading.Thread(target=trickle)
            drip.start()
            try:
                with ServeClient("127.0.0.1", rt.port) as client:
                    answers = [dumps(client.allocate(**s))
                               for s in corpus]
                assert answers == expected
            finally:
                stop.set()
                drip.join(timeout=10)
                loris.close()
