"""End-to-end service observability: stitched cross-process traces,
the access log, the flight recorder, and quantile agreement."""

import concurrent.futures
import json
import multiprocessing
import pathlib

import pytest

from repro.engine import (ExperimentEngine, FaultPlan, WorkerPool,
                          request_key)
from repro.ir import function_to_text
from repro.obs import Span, bucket_index
from repro.serve import (FlightRecorder, RequestRecord, ServeClient,
                         ServeConfig, ServerThread, access_line, dumps,
                         request_from_json, run_load,
                         stitch_request_trace, summary_to_json)

from ..helpers import single_loop

LOOP_TEXT = function_to_text(single_loop())
FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def spec(n: int = 0) -> dict:
    return {"ir_text": LOOP_TEXT, "int_regs": 4, "args": [n]}


def assert_well_nested(span: dict, lo: float | None = None,
                       hi: float | None = None) -> None:
    """Every span's window is ordered and inside its parent's."""
    assert span["start"] <= span["end"], span["name"]
    if lo is not None:
        assert span["start"] >= lo, span["name"]
    if hi is not None:
        assert span["end"] <= hi, span["name"]
    for child in span["children"]:
        assert_well_nested(child, span["start"], span["end"])


def siblings_ordered(spans: list[dict]) -> bool:
    """Sibling windows appear in start order and do not overlap."""
    for before, after in zip(spans, spans[1:]):
        if after["start"] < before["end"]:
            return False
    return True


def golden_record() -> RequestRecord:
    return RequestRecord(
        request_id="r000042", wall_time=1754500000.25, op="allocate",
        client_id="c7", client="tenant-7", key="allocate:deadbeef",
        allocator="iterated", outcome="ok",
        dedup=False, source="executed", attempts=2, retries=1,
        cache_put_s=0.000125, t_accept=100.0, t_parse=100.001,
        t_admit=100.0015, t_dequeue=100.002, t_dispatch=100.0065,
        t_execute=100.0465, t_respond=100.0467)


class TestRecord:
    def test_phases_are_contiguous_and_sum_to_total(self):
        record = golden_record()
        phases = record.phase_seconds()
        assert list(phases) == ["parse", "admission", "queue_wait",
                                "batch_wait", "execute", "respond"]
        assert sum(phases.values()) == pytest.approx(record.total_s,
                                                     abs=1e-12)

    def test_unreached_phases_collapse_to_zero(self):
        # a rejected request: parsed, then answered — no queue, no batch
        record = RequestRecord(request_id="r1", t_accept=10.0,
                               t_parse=10.002, t_respond=10.003,
                               outcome="overload")
        phases = record.phase_seconds()
        assert phases["parse"] == pytest.approx(0.002)
        assert phases["queue_wait"] == 0.0
        assert phases["execute"] == 0.0
        assert phases["respond"] == pytest.approx(0.001)
        assert sum(phases.values()) == pytest.approx(record.total_s)

    def test_access_line_matches_golden(self):
        golden = (FIXTURES / "access_line.golden").read_text().strip()
        assert access_line(golden_record()) == golden

    def test_stitch_grafts_engine_spans_under_execute(self):
        record = golden_record()
        # an attempt protruding past the execute window gets clamped
        record.spans = [Span("attempt", {"number": 1},
                             start=100.006, end=100.050)]
        root = stitch_request_trace(record)
        assert root.name == "request"
        assert [c.name for c in root.children] == [
            "parse", "admission", "queue_wait", "batch_wait",
            "execute", "respond"]
        execute = root.child("execute")
        attempt, = execute.children
        assert attempt.start >= execute.start
        assert attempt.end <= execute.end
        assert_well_nested(json.loads(dumps(_payload(root))))

    def test_flight_recorder_bounds_and_ordering(self):
        recorder = FlightRecorder(slots=2)
        for n, total in enumerate((0.03, 0.01, 0.05, 0.02)):
            recorder.record(RequestRecord(
                request_id=f"r{n}", op="allocate", t_accept=0.0,
                t_respond=total))
        for n in range(3):
            recorder.record(RequestRecord(
                request_id=f"f{n}", op="allocate", outcome="failed",
                t_accept=0.0, t_respond=0.001))
        dump = recorder.dump()
        assert dump["recorded"] == 7
        slowest = [e["access"]["total_s"] for e in dump["slowest"]]
        assert slowest == [0.05, 0.03]  # slowest first, bounded at 2
        assert [e["access"]["id"] for e in dump["failures"]] == \
            ["f1", "f2"]  # most recent failures, bounded at 2

    def test_flight_recorder_stitches_only_what_it_keeps(
            self, monkeypatch):
        from repro.serve import observe

        stitched = []
        monkeypatch.setattr(
            observe, "stitch_request_trace",
            lambda record: stitched.append(record.request_id)
            or stitch_request_trace(record))
        recorder = FlightRecorder(slots=2)
        for n, total in enumerate((0.03, 0.01, 0.05, 0.02, 0.04)):
            recorder.record(RequestRecord(
                request_id=f"r{n}", op="allocate", t_accept=0.0,
                t_respond=total))
        # r3 was faster than both kept entries: never stitched
        assert stitched == ["r0", "r1", "r2", "r4"]
        assert [e["access"]["id"] for e in recorder.dump()["slowest"]] \
            == ["r2", "r4"]


def _payload(span: Span) -> dict:
    from repro.obs import span_to_payload

    return span_to_payload(span)


@pytest.fixture(scope="module")
def served():
    """One pooled server handling a mixed workload, then drained; the
    artifacts (responses, metrics, debug dump, access log) are what
    the tests pick over."""
    import tempfile

    out = {}
    with tempfile.TemporaryDirectory() as tmpdir:
        log_path = pathlib.Path(tmpdir) / "access.jsonl"
        dump_path = pathlib.Path(tmpdir) / "flight.json"
        pool = WorkerPool(2)
        engine = ExperimentEngine(jobs=2, use_cache=False, pool=pool)
        config = ServeConfig(access_log=log_path,
                             flight_dump=dump_path)
        try:
            with ServerThread(engine, config) as srv:
                with ServeClient("127.0.0.1", srv.port) as client:
                    out["first"] = client.allocate(**spec(3))
                    out["repeat"] = client.allocate(**spec(3))  # memo
                    out["second"] = client.allocate(**spec(5))
                    client.ping()
                    with pytest.raises(Exception):
                        client.call("allocate", {})  # bad_request
                    out["metrics"] = client.metrics()
                    out["debug"] = client.debug()
            out["access"] = [json.loads(line)
                             for line in log_path.read_text().splitlines()]
            out["flight_dump"] = json.loads(dump_path.read_text())
        finally:
            pool.close()
    return out


class TestServedTraces:
    def test_stitched_trace_well_nested_across_worker_boundary(
            self, served):
        executed = [entry for entry in served["debug"]["slowest"]
                    if entry["access"]["source"] == "executed"]
        assert executed, "no executed request reached the recorder"
        for entry in executed:
            trace = entry["trace"]
            assert trace["name"] == "request"
            assert_well_nested(trace)
            phases = trace["children"]
            assert [p["name"] for p in phases] == [
                "parse", "admission", "queue_wait", "batch_wait",
                "execute", "respond"]
            assert siblings_ordered(phases)
            execute = phases[4]
            attempts = [c for c in execute["children"]
                        if c["name"] == "attempt"]
            assert attempts and siblings_ordered(attempts)
            # the worker-side exec subtree crossed the pipe and was
            # rebased into the server's clock
            exec_span, = [c for c in attempts[-1]["children"]
                          if c["name"] == "exec"]
            worker_phases = [c["name"] for c in exec_span["children"]]
            assert "parse" in worker_phases
            assert "allocate" in worker_phases

    def test_memo_hit_records_its_source(self, served):
        memo_lines = [line for line in served["access"]
                      if line["source"] == "memo"]
        assert len(memo_lines) == 1
        assert memo_lines[0]["attempts"] == 0

    def test_served_summary_byte_identical_to_local_run(self, served):
        local = ExperimentEngine(jobs=1, use_cache=False).run(
            request_from_json(spec(3)))
        assert dumps(served["first"]) == dumps(summary_to_json(local))
        assert dumps(served["repeat"]) == dumps(summary_to_json(local))

    def test_access_log_phases_sum_to_total(self, served):
        assert len(served["access"]) == 7
        for line in served["access"]:
            total = line["total_s"]
            phase_sum = sum(line["phases"].values())
            # rounding puts a few microseconds of slack on tiny lines
            assert phase_sum == pytest.approx(
                total, rel=0.05, abs=1e-5), line

    def test_access_log_covers_every_request(self, served):
        ops = [line["op"] for line in served["access"]]
        assert ops.count("allocate") == 4
        assert "ping" in ops and "metrics" in ops
        bad, = [line for line in served["access"]
                if line["outcome"] == "bad_request"]
        assert bad["op"] == "allocate"

    def test_bad_request_lands_in_flight_recorder_failures(
            self, served):
        failures = served["debug"]["failures"]
        assert [f["access"]["outcome"] for f in failures] == \
            ["bad_request"]

    def test_metrics_expose_request_quantiles(self, served):
        latency = served["metrics"]["histograms"][
            "serve.request_seconds"]
        assert latency["count"] == 4  # 3 ok + the rejected allocate
        assert 0 < latency["p50"] <= latency["p99"] <= latency["max"]
        for phase in ("parse", "admission", "queue_wait", "batch_wait",
                      "execute", "respond"):
            assert served["metrics"]["histograms"][
                f"serve.phase.{phase}"]["count"] == 4

    def test_flight_dump_written_on_drain(self, served):
        assert served["flight_dump"]["slowest"]
        assert served["flight_dump"]["recorded"] == 4


class TestRetriedRequest:
    def test_retries_appear_as_sibling_attempt_spans(self, tmp_path):
        request = request_from_json(spec(2))
        key = request_key(request)
        plan = FaultPlan(worker_faults={(key, 1): "raise"})
        log_path = tmp_path / "access.jsonl"
        pool = WorkerPool(1, plan)
        engine = ExperimentEngine(jobs=1, use_cache=False,
                                  fault_plan=plan, pool=pool)
        try:
            with ServerThread(engine,
                              ServeConfig(access_log=log_path)) as srv:
                with ServeClient("127.0.0.1", srv.port) as client:
                    result = client.allocate(**spec(2))
                    debug = client.debug()
        finally:
            pool.close()
        assert result["key"] == key
        line = json.loads(log_path.read_text().splitlines()[0])
        assert line["attempts"] == 2
        assert line["retries"] == 1
        entry, = debug["slowest"]
        execute = entry["trace"]["children"][4]
        attempts = [c for c in execute["children"]
                    if c["name"] == "attempt"]
        assert [a["attrs"]["number"] for a in attempts] == [1, 2]
        assert [a["attrs"]["outcome"] for a in attempts] == \
            ["exception", "ok"]
        assert siblings_ordered(attempts)
        assert_well_nested(entry["trace"])


def load_in_subprocess(port: int, corpus: list[dict], clients: int,
                       total_requests: int):
    """:func:`run_load` in a spawned process, so the load generator's
    threads never wait on this process's GIL -- the one the server
    thread (and an in-process engine) holds."""
    ctx = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(1, mp_context=ctx) as ex:
        return ex.submit(run_load, "127.0.0.1", port, corpus,
                         clients=clients,
                         total_requests=total_requests).result(timeout=120)


class TestQuantileAgreement:
    def test_server_quantiles_within_one_bucket_of_loadgen(self):
        self.check_agreement(ExperimentEngine(jobs=1, use_cache=False))

    def test_pooled_server_quantiles_within_one_bucket_of_loadgen(self):
        pool = WorkerPool(1)
        try:
            self.check_agreement(ExperimentEngine(jobs=1, use_cache=False,
                                                  pool=pool))
        finally:
            pool.close()

    @staticmethod
    def check_agreement(engine: ExperimentEngine) -> None:
        # unique requests (distinct args -> distinct keys) so every
        # latency is a real execution, well clear of socket overhead and
        # of the up to one GIL switch interval (5 ms) an in-process
        # engine's executor thread can keep the loop from reading the
        # next request: one 50,000-trip execution takes ~18 ms
        corpus = [spec(50_000 + n) for n in range(10)]
        with ServerThread(engine, ServeConfig()) as srv:
            report = load_in_subprocess(srv.port, corpus, clients=2,
                                        total_requests=len(corpus))
            with ServeClient("127.0.0.1", srv.port) as client:
                snapshot = client.metrics()
        assert report.ok == len(corpus)
        latency = snapshot["histograms"]["serve.request_seconds"]
        for q, name in ((50, "p50"), (99, "p99")):
            client_side = report.latency_ms(q) / 1000.0
            server_side = latency[name]
            assert abs(bucket_index(client_side)
                       - bucket_index(server_side)) <= 1, \
                (q, client_side, server_side)


class TestTracingDisabled:
    def test_no_request_tracing_still_stamps_lifecycle(self, tmp_path):
        log_path = tmp_path / "access.jsonl"
        engine = ExperimentEngine(jobs=1, use_cache=False)
        config = ServeConfig(trace_requests=False, access_log=log_path)
        with ServerThread(engine, config) as srv:
            with ServeClient("127.0.0.1", srv.port) as client:
                client.allocate(**spec(1))
                debug = client.debug()
        line = json.loads(log_path.read_text().splitlines()[0])
        assert line["outcome"] == "ok"
        assert line["source"] is None  # no engine observation taken
        assert sum(line["phases"].values()) == pytest.approx(
            line["total_s"], rel=0.05, abs=1e-5)
        entry, = debug["slowest"]
        execute = entry["trace"]["children"][4]
        assert execute["children"] == []  # no stitched subtree
