"""The ``repro top`` dashboard: rendering and the polling loop."""

import json

from repro.engine import ExperimentEngine
from repro.ir import function_to_text
from repro.serve import (ServeClient, ServeConfig, ServerThread,
                         format_seconds, render_dashboard)
from repro.serve.top import run_top

from ..helpers import single_loop

LOOP_TEXT = function_to_text(single_loop())


def snapshot(requests: int = 10, executed: int = 4) -> dict:
    return {
        "counters": {
            "serve.requests": requests,
            "serve.deduplicated": 2,
            "serve.batches": 3,
            "engine.memo_hits": 4,
            "engine.cache_hits": 2,
            "engine.executed": executed,
            "pool.size": 2, "pool.spawned": 2, "pool.reused": 7,
        },
        "histograms": {
            "serve.request_seconds": {
                "count": 10, "total": 0.5, "min": 0.01, "max": 0.2,
                "p50": 0.04, "p90": 0.1, "p99": 0.2},
            "serve.batch_size": {"count": 3, "total": 9.0,
                                 "min": 1.0, "max": 5.0},
            "serve.phase.execute": {
                "count": 10, "total": 0.4, "min": 0.01, "max": 0.15,
                "p50": 0.03, "p90": 0.09, "p99": 0.15},
        },
        "queue_depth": 1,
        "inflight": 2,
    }


class TestFormatSeconds:
    def test_unit_selection(self):
        assert format_seconds(17e-6) == "17µs"
        assert format_seconds(0.0042) == "4.2ms"
        assert format_seconds(1.31) == "1.31s"


class TestRenderDashboard:
    def test_renders_every_section(self):
        text = render_dashboard(snapshot())
        assert "requests" in text and "10" in text
        assert "p50 40.0ms" in text
        assert "p99 200.0ms" in text
        assert "1 queued" in text and "2 in flight" in text
        assert "dedup 2" in text
        assert "avg size 3.0" in text
        assert "hit ratio 60%" in text
        assert "spawned 2" in text and "reused 7" in text
        assert "execute 30.0ms" in text

    def test_rates_derived_from_previous_snapshot(self):
        text = render_dashboard(snapshot(requests=30, executed=14),
                                previous=snapshot(), interval=2.0)
        assert "10.0 req/s" in text
        assert "5.0 exec/s" in text

    def test_no_rates_without_previous(self):
        assert "req/s" not in render_dashboard(snapshot())

    def test_throttled_requests_are_shown(self):
        throttled = snapshot()
        throttled["counters"]["serve.throttled"] = 3
        assert "throttled 3" in render_dashboard(throttled)

    def test_empty_server_renders(self):
        text = render_dashboard({"counters": {}, "histograms": {},
                                 "queue_depth": 0, "inflight": 0})
        assert "no requests observed" in text


class TestRunTop:
    def test_polls_a_live_server(self):
        engine = ExperimentEngine(jobs=1, use_cache=False)
        with ServerThread(engine, ServeConfig()) as srv:
            with ServeClient("127.0.0.1", srv.port) as client:
                client.allocate(ir_text=LOOP_TEXT, int_regs=4, args=[2])
            frames: list[str] = []
            slept: list[float] = []
            code = run_top("127.0.0.1", srv.port, interval=0.01,
                           iterations=3, out=frames.append,
                           sleep=slept.append)
        assert code == 0
        assert len(frames) == 3
        assert slept == [0.01, 0.01]
        assert "latency" in frames[0]
        # the second frame has a previous snapshot, hence rates
        assert "req/s" in frames[1]

    def test_json_format_emits_raw_snapshots(self):
        engine = ExperimentEngine(jobs=1, use_cache=False)
        with ServerThread(engine, ServeConfig()) as srv:
            frames: list[str] = []
            run_top("127.0.0.1", srv.port, iterations=1, fmt="json",
                    out=frames.append, sleep=lambda _: None)
        parsed = json.loads(frames[0])
        assert "counters" in parsed and "histograms" in parsed

    def test_prom_format_emits_exposition(self):
        engine = ExperimentEngine(jobs=1, use_cache=False)
        with ServerThread(engine, ServeConfig()) as srv:
            frames: list[str] = []
            run_top("127.0.0.1", srv.port, iterations=1, fmt="prom",
                    out=frames.append, sleep=lambda _: None)
        assert "# TYPE repro_serve_requests_total counter" in frames[0]
