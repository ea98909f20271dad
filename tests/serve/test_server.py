"""The async server: admission control, dedup, batching, byte-identity."""

import asyncio
import concurrent.futures
import json
import pickle
import socket
import threading
import time

import pytest

from repro.benchsuite import KERNELS_BY_NAME
from repro.engine import (ExperimentEngine, FaultPlan, SupervisorConfig,
                          WorkerPool, executor, request_key)
from repro.ir import function_to_text, parse_function
from repro.machine import machine_with
from repro.opt import optimize
from repro.regalloc.splitting import SCHEMES
from repro.remat import RenumberMode
from repro.serve import (AllocationServer, ServeClient, ServeConfig,
                         ServeError, ServerThread, dumps, execute_trace,
                         request_from_json, summary_to_json)
from repro.serve.protocol import encode_line

from ..helpers import single_loop

LOOP_TEXT = function_to_text(single_loop())


def spec(n: int = 0) -> dict:
    return {"ir_text": LOOP_TEXT, "int_regs": 4, "args": [n]}


def line(op: str, n: int = 0, request_id: str = "t") -> bytes:
    return encode_line({"v": 1, "id": request_id, "op": op,
                        "request": spec(n)})


def v2_line(op: str, n: int = 0, request_id: str = "t",
            **extra) -> bytes:
    return encode_line({"v": 2, "id": request_id, "op": op,
                        "request": spec(n), **extra})


def local_bytes(n: int) -> str:
    """What ``run_many`` answers for ``spec(n)``, serialized."""
    return dumps(summary_to_json(
        serial_engine().run_many([request_from_json(spec(n))])[0]))


def serial_engine(**kwargs) -> ExperimentEngine:
    return ExperimentEngine(jobs=1, use_cache=False, **kwargs)


class TestAdmission:
    """Unit tests against the server object — the batcher is started
    (or not) by hand, so queue occupancy is deterministic."""

    def test_full_queue_rejects_with_overload(self):
        async def scenario():
            server = AllocationServer(serial_engine(),
                                      ServeConfig(queue_limit=1))
            first = asyncio.ensure_future(
                server._respond(line("allocate", 0)))
            await asyncio.sleep(0)          # let it occupy the queue slot
            overloaded = await server._respond(line("allocate", 1))
            assert overloaded["ok"] is False
            assert overloaded["error"]["kind"] == "overload"
            assert server.metrics.counters()[
                "serve.overload_rejections"] == 1
            # now drain: run the batcher until the first answer lands
            batcher = asyncio.ensure_future(server._batcher())
            response = await first
            assert response["ok"] is True
            await server.queue.put(None)
            await batcher

        asyncio.run(scenario())

    def test_identical_inflight_requests_share_one_execution(self):
        async def scenario():
            server = AllocationServer(serial_engine(),
                                      ServeConfig(queue_limit=1))
            first = asyncio.ensure_future(
                server._respond(line("allocate", 0, "a")))
            await asyncio.sleep(0)
            # same key: joins the in-flight future, takes no queue slot
            second = asyncio.ensure_future(
                server._respond(line("allocate", 0, "b")))
            await asyncio.sleep(0)
            assert server.metrics.counters()["serve.deduplicated"] == 1
            assert server.queue.qsize() == 1
            batcher = asyncio.ensure_future(server._batcher())
            r1, r2 = await asyncio.gather(first, second)
            assert r1["ok"] and r2["ok"]
            assert dumps(r1["result"]) == dumps(r2["result"])
            assert server.engine.stats.executed == 1
            await server.queue.put(None)
            await batcher

        asyncio.run(scenario())

    def test_draining_rejects_new_work(self):
        async def scenario():
            server = AllocationServer(serial_engine(), ServeConfig())
            server.draining = True
            response = await server._respond(line("allocate", 0))
            assert response["ok"] is False
            assert response["error"]["kind"] == "draining"

        asyncio.run(scenario())

    def test_malformed_lines_get_typed_errors(self):
        async def scenario():
            server = AllocationServer(serial_engine(), ServeConfig())
            bad_json = await server._respond(b"{nope\n")
            assert bad_json["error"]["kind"] == "bad_request"
            bad_op = await server._respond(
                encode_line({"v": 1, "id": "x", "op": "explode"}))
            assert bad_op["id"] == "x"
            assert bad_op["error"]["kind"] == "bad_request"
            bad_request = await server._respond(
                encode_line({"v": 1, "id": "y", "op": "allocate",
                             "request": {"kernel": "no-such"}}))
            assert bad_request["error"]["kind"] == "bad_request"

        asyncio.run(scenario())


class GatedEngine:
    """An engine stand-in whose ``run_many`` records each batch (by the
    requests' first argument), then blocks until the test releases it
    and answers through a real serial engine."""

    pool = None

    def __init__(self):
        self.inner = serial_engine()
        self.batches: list[list[int]] = []
        self.entered = threading.Semaphore(0)
        self.gate = threading.Semaphore(0)

    def run_many(self, requests, observations=None, deadlines=None):
        self.batches.append([r.args[0] for r in requests])
        self.entered.release()
        if not self.gate.acquire(timeout=10):
            raise RuntimeError("the test never released this batch")
        return self.inner.run_many(requests, observations=observations,
                                   deadlines=deadlines)

    def metrics(self):
        return self.inner.metrics()

    def open(self) -> None:
        """Let every batch through, so a failed test cannot hang."""
        for _ in range(100):
            self.gate.release()

    async def dispatched(self) -> None:
        """Wait (off the event loop) until the next batch is running."""
        loop = asyncio.get_running_loop()
        assert await loop.run_in_executor(None, self.entered.acquire,
                                          True, 10), "no batch dispatched"


def run_gated(engine: GatedEngine, scenario) -> None:
    """Run the coroutine function *scenario*, opening the engine's gate
    however it ends, so a failed assertion cannot hang the test."""
    async def main():
        try:
            await scenario()
        finally:
            engine.open()

    asyncio.run(main())


def submit(server: AllocationServer, n: int) -> asyncio.Future:
    return asyncio.ensure_future(server._respond(line("allocate", n)))


class TestDispatch:
    """The batcher dispatches at once and batches only a backlog; it is
    started by hand over a :class:`GatedEngine`, so every batch's
    membership is decided by the test, never by a clock."""

    def test_idle_request_dispatches_alone_and_backlog_batches(self):
        engine = GatedEngine()

        async def scenario():
            server = AllocationServer(engine, ServeConfig(max_batch=2))
            batcher = asyncio.ensure_future(server._batcher())
            first = submit(server, 0)
            # the moment the batcher has taken the request, a second
            # one arrives: a lingering batcher would still take it
            while not server.inflight or not server.queue.empty():
                await asyncio.sleep(0)
            second = submit(server, 1)
            await engine.dispatched()
            assert engine.batches == [[0]]
            # queued while the first batch runs: they go out together
            # as the next batch, capped at max_batch
            rest = [submit(server, n) for n in (2, 3)]
            await asyncio.sleep(0)
            assert server.queue.qsize() == 3
            engine.gate.release()
            await engine.dispatched()
            assert engine.batches[1] == [1, 2]
            engine.gate.release()
            await engine.dispatched()
            assert engine.batches[2] == [3]
            engine.gate.release()
            responses = await asyncio.gather(first, second, *rest)
            assert all(r["ok"] for r in responses)
            assert server.metrics.counters()["serve.batches"] == 3
            await server.queue.put(None)
            await batcher

        run_gated(engine, scenario)

    def test_retry_after_grows_with_queue_depth(self):
        engine = GatedEngine()

        async def scenario():
            server = AllocationServer(
                engine, ServeConfig(queue_limit=2, max_batch=1))
            batcher = asyncio.ensure_future(server._batcher())
            # one finished batch gives the server a measured duration
            first = submit(server, 0)
            await engine.dispatched()
            engine.gate.release()
            assert (await first)["ok"]
            running = submit(server, 1)
            await engine.dispatched()
            # a rejection with nothing queued behind the running batch
            server.draining = True
            shallow = await server._respond(line("allocate", 9))
            server.draining = False
            queued = [submit(server, n) for n in (2, 3)]
            await asyncio.sleep(0)
            assert server.queue.qsize() == 2
            deep = await server._respond(line("allocate", 4))
            assert shallow["error"]["kind"] == "draining"
            assert deep["error"]["kind"] == "overload"
            assert 0 < shallow["error"]["retry_after"] \
                < deep["error"]["retry_after"]
            for _ in range(3):
                engine.gate.release()
            assert all(r["ok"] for r in await asyncio.gather(running,
                                                              *queued))
            await server.queue.put(None)
            await batcher

        run_gated(engine, scenario)

    def test_retry_after_prices_a_running_first_batch(self):
        """Before any batch has finished there is no measured duration;
        the running batch is priced at its elapsed time instead."""
        engine = GatedEngine()

        async def scenario():
            server = AllocationServer(
                engine, ServeConfig(queue_limit=2, max_batch=1))
            batcher = asyncio.ensure_future(server._batcher())
            running = submit(server, 0)
            await engine.dispatched()
            server.draining = True
            shallow = await server._respond(line("allocate", 9))
            server.draining = False
            queued = [submit(server, n) for n in (1, 2)]
            await asyncio.sleep(0)
            deep = await server._respond(line("allocate", 3))
            assert shallow["error"]["kind"] == "draining"
            assert deep["error"]["kind"] == "overload"
            # more than the 10 ms constant, and growing with the queue
            assert 0.01 < shallow["error"]["retry_after"] \
                < deep["error"]["retry_after"]
            for _ in range(3):
                engine.gate.release()
            assert all(r["ok"] for r in await asyncio.gather(running,
                                                              *queued))
            await server.queue.put(None)
            await batcher

        run_gated(engine, scenario)


class TestEndToEnd:
    """Socket-level tests through :class:`ServerThread`."""

    def test_allocate_is_byte_identical_to_run_many(self):
        with ServerThread(serial_engine()) as srv:
            with ServeClient("127.0.0.1", srv.port) as client:
                served = client.allocate(**spec(0))
        local = serial_engine().run_many([request_from_json(spec(0))])[0]
        assert dumps(served) == dumps(summary_to_json(local))

    def test_trace_matches_local_trace(self):
        """Identical to a local ``execute_trace`` modulo wall-clock
        fields (span start/dur and timing histograms are live data)."""
        import json

        def normalized(text):
            lines = []
            for raw in text.splitlines():
                obj = json.loads(raw)
                if obj.get("type") == "span":
                    obj.pop("start", None)
                    obj.pop("dur", None)
                elif obj.get("type") == "metrics":
                    obj = {"type": "metrics",
                           "counters": obj.get("counters")}
                lines.append(dumps(obj))
            return lines

        with ServerThread(serial_engine()) as srv:
            with ServeClient("127.0.0.1", srv.port) as client:
                served = client.trace(**spec(0))
        local = execute_trace(request_from_json(spec(0)))
        assert normalized(served) == normalized(local)
        # the identity block is fully deterministic
        meta = json.loads(served.splitlines()[0])
        assert meta["function"] == json.loads(
            local.splitlines()[0])["function"]

    def test_concurrent_clients_batch_and_agree(self):
        config = ServeConfig(max_batch=16)
        with ServerThread(serial_engine(), config) as srv:
            def one(n):
                with ServeClient("127.0.0.1", srv.port) as client:
                    return dumps(client.allocate(**spec(n % 2)))

            with concurrent.futures.ThreadPoolExecutor(6) as pool:
                results = list(pool.map(one, range(6)))
            with ServeClient("127.0.0.1", srv.port) as client:
                metrics = client.metrics()
        locals_ = serial_engine().run_many(
            [request_from_json(spec(n % 2)) for n in range(6)])
        expected = [dumps(summary_to_json(o)) for o in locals_]
        assert results == expected
        counters = metrics["counters"]
        assert counters["serve.requests"] == 7
        # at most two distinct keys ever executed, whatever the batching
        assert counters["engine.executed"] <= 2

    def test_threads_can_share_one_client_connection(self):
        """The client lock serializes whole round-trips, so concurrent
        threads over one connection each get the answer to *their*
        request, never a neighbour's."""
        with ServerThread(serial_engine()) as srv:
            with ServeClient("127.0.0.1", srv.port) as client:
                def one(n):
                    return dumps(client.allocate(**spec(n % 2)))

                with concurrent.futures.ThreadPoolExecutor(8) as pool:
                    results = list(pool.map(one, range(16)))
        locals_ = serial_engine().run_many(
            [request_from_json(spec(n % 2)) for n in range(16)])
        assert results == [dumps(summary_to_json(o)) for o in locals_]

    def test_quarantined_request_comes_back_as_typed_failure(self):
        key = request_key(request_from_json(spec(0)))
        engine = serial_engine(
            fault_plan=FaultPlan(poison=frozenset({key})),
            supervisor=SupervisorConfig(max_attempts=1, backoff=0.0))
        with ServerThread(engine) as srv:
            with ServeClient("127.0.0.1", srv.port) as client:
                with pytest.raises(ServeError) as exc:
                    client.allocate(**spec(0))
                # the connection survives the failure
                assert client.ping()
        error = exc.value.error
        assert error["kind"] == "failed"
        assert error["key"] == key
        assert error["attempts"] == 1

    def test_shutdown_op_drains_and_closes(self):
        with ServerThread(serial_engine()) as srv:
            with ServeClient("127.0.0.1", srv.port) as client:
                client.allocate(**spec(0))
                client.shutdown()
            srv._thread.join(timeout=30)
            assert not srv._thread.is_alive()

    def test_metrics_expose_admission_and_engine_counters(self):
        with ServerThread(serial_engine()) as srv:
            with ServeClient("127.0.0.1", srv.port) as client:
                client.allocate(**spec(0))
                client.allocate(**spec(0))   # memo hit, same bytes
                metrics = client.metrics()
        counters = metrics["counters"]
        assert counters["serve.op.allocate"] == 2
        assert counters["serve.batches"] >= 1
        assert counters["engine.executed"] == 1
        assert counters["engine.memo_hits"] == 1
        assert metrics["queue_depth"] == 0
        assert metrics["inflight"] == 0

    def test_slow_loris_client_does_not_starve_normal_traffic(self):
        """A connection trickling a never-finished request line costs
        the server nothing: requests on other connections keep
        answering."""
        corpus = [spec(n) for n in range(3)]
        expected = [local_bytes(n) for n in range(3)]
        with ServerThread(serial_engine()) as srv:
            loris = socket.create_connection(("127.0.0.1", srv.port),
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
                with ServeClient("127.0.0.1", srv.port) as client:
                    answers = [dumps(client.allocate(**s))
                               for s in corpus]
                assert answers == expected
            finally:
                stop.set()
                drip.join(timeout=10)
                loris.close()

    def test_start_spawns_the_whole_pool(self):
        pool = WorkerPool(2)
        engine = ExperimentEngine(jobs=2, use_cache=False, pool=pool)
        try:
            with ServerThread(engine) as srv:
                with ServeClient("127.0.0.1", srv.port) as client:
                    before = client.metrics()["counters"]
                    client.allocate(**spec(0))
                    after = client.metrics()["counters"]
        finally:
            pool.close()
        assert before["pool.spawned"] == 2
        assert after["pool.spawned"] == 2
        assert after["engine.worker_spawns"] == 0


class TestDeadlines:
    """``deadline_s``: dead work is answered ``expired`` and never run,
    running work is abandoned at the deadline, and a subscriber is
    answered ``expired`` only when its own deadline has passed."""

    @pytest.mark.parametrize("op", ["allocate", "trace"])
    def test_spent_deadline_answers_expired_without_executing(self, op):
        with ServerThread(serial_engine()) as srv:
            with ServeClient("127.0.0.1", srv.port) as client:
                response = client.call_raw(op, spec(0), deadline_s=0)
                counters = client.metrics()["counters"]
        assert response["ok"] is False
        assert response["error"]["kind"] == "expired"
        assert counters["serve.expired"] == 1
        assert counters.get("engine.executed", 0) == 0
        assert counters.get("serve.batches", 0) == 0

    def test_hung_attempt_expires_at_the_deadline_and_frees_the_pool(self):
        key = request_key(request_from_json(spec(0)))
        plan = FaultPlan(worker_faults={(key, 1): "hang"},
                         hang_seconds=30.0)
        pool = WorkerPool(1, plan)
        engine = ExperimentEngine(jobs=1, use_cache=False, pool=pool,
                                  fault_plan=plan)
        try:
            with ServerThread(engine) as srv:
                with ServeClient("127.0.0.1", srv.port) as client:
                    started = time.monotonic()
                    response = client.call_raw("allocate", spec(0),
                                               deadline_s=1.0)
                    waited = time.monotonic() - started
                    counters = client.metrics()["counters"]
                    # the pool replaced the killed worker: the next
                    # request is answered
                    after = dumps(client.allocate(**spec(1)))
        finally:
            pool.close()
        assert response["error"]["kind"] == "expired"
        # cut at the deadline, not at the end of the 30 s hang
        assert 1.0 <= waited < 10.0, waited
        assert counters["engine.expired"] == 1
        assert counters.get("engine.retries", 0) == 0
        assert counters["pool.discarded"] == 1
        assert counters["serve.expired"] == 1
        assert after == local_bytes(1)

    def test_late_subscriber_is_not_expired_by_another_deadline(self):
        """B attaches without a deadline after A's batch was dispatched
        with A's deadline.  The batch expires on A's deadline; A gets
        ``expired``, B is admitted again and gets the summary."""
        engine = GatedEngine()

        async def scenario():
            server = AllocationServer(engine, ServeConfig())
            batcher = asyncio.ensure_future(server._batcher())
            a = asyncio.ensure_future(server._respond(
                v2_line("allocate", 0, "a", deadline_s=0.2)))
            await engine.dispatched()   # A's deadline is read
            b = asyncio.ensure_future(server._respond(
                v2_line("allocate", 0, "b")))
            await asyncio.sleep(0)
            assert server.metrics.counters()["serve.deduplicated"] == 1
            await asyncio.sleep(0.25)   # A's deadline has now passed
            engine.gate.release()
            response_a = await a
            engine.gate.release()       # B's own execution
            response_b = await b
            assert response_a["error"]["kind"] == "expired"
            assert response_b["ok"] is True
            assert dumps(response_b["result"]) == local_bytes(0)
            assert server.metrics.counters()["serve.expired"] == 1
            assert engine.batches == [[0], [0]]
            await server.queue.put(None)
            await batcher

        run_gated(engine, scenario)


class TestRequestFields:
    """Every accepted request field reaches ``allocate()``, the same way
    for ``allocate`` and ``trace``."""

    CASES = {
        "flags": {"int_regs": 5, "float_regs": 7, "mode": "chaitin",
                  "optimize_first": True, "biased": False,
                  "lookahead": False, "coalesce_splits": False,
                  "optimistic": False},
        "scheme": {"scheme": "around-all-loops"},
        "ssa": {"allocator": "ssa"},
    }

    @pytest.mark.parametrize("op", ["allocate", "trace"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_field_reaches_allocate(self, monkeypatch, op, case):
        fields = self.CASES[case]
        calls = []
        real = executor.allocate

        def recording(fn, **kwargs):
            calls.append((function_to_text(fn), kwargs))
            return real(fn, **kwargs)

        monkeypatch.setattr(executor, "allocate", recording)
        with ServerThread(serial_engine()) as srv:
            with ServeClient("127.0.0.1", srv.port) as client:
                client.call(op, {"kernel": "fehl", **fields})
        (text, kwargs), = calls

        source = parse_function(KERNELS_BY_NAME["fehl"].ir_text())
        if fields.get("optimize_first"):
            optimize(source)
        assert text == function_to_text(source)
        int_regs = fields.get("int_regs", 16)
        assert (kwargs["machine"].int_regs, kwargs["machine"].float_regs) \
            == (int_regs, fields.get("float_regs", int_regs))
        scheme = SCHEMES.get(fields.get("scheme"))
        assert kwargs["mode"] == (scheme.mode if scheme else
                                  RenumberMode(fields.get("mode", "remat")))
        assert kwargs["pre_split"] is (scheme.pre_split if scheme else None)
        for name in ("biased", "lookahead", "coalesce_splits",
                     "optimistic"):
            assert kwargs[name] is fields.get(name, True), name
        assert kwargs["allocator"] == fields.get("allocator", "iterated")

    def test_served_ssa_trace_records_ssa_decisions(self):
        with ServerThread(serial_engine()) as srv:
            with ServeClient("127.0.0.1", srv.port) as client:
                text = client.trace(kernel="fehl", int_regs=6,
                                    float_regs=6, allocator="ssa")
        lines = [json.loads(raw) for raw in text.splitlines()]
        root = next(obj for obj in lines if obj["type"] == "span")
        assert root["attrs"]["allocator"] == "ssa"
        kinds = {obj["kind"] for obj in lines if obj["type"] == "event"}
        assert {"maxlive_pressure", "ssa_spill_decision"} <= kinds
