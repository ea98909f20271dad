"""Evidence for the allocation server (allocation-as-a-service shape).

Boots one ``repro serve`` process with a warm worker pool and a fresh
cache, then measures a cold single-client pass over the corpus followed
by warm 100-request runs at 1, 8, and 64 concurrent clients.  Gates:

* every response is byte-identical to a local batch-engine run;
* warm-cache 64-client throughput beats the single-client cold
  baseline by at least 5x;
* worker spawns stay amortized — at most pool-size spawns in total,
  and none at all during the warm (cache-hot) runs.

A second arm measures the cost of full observability (request tracing
+ access log + flight recorder) against a server with tracing disabled
over interleaved pairs of warm runs, alternating which arm goes first:
the median of the per-pair throughput overheads must stay within 5%,
and every pair, the interquartile spread and the per-phase latency
breakdown the instrumented server reports land in the results file.
The access log and flight-recorder dump are written under
``benchmarks/results/`` so CI uploads them as artifacts.

Writes latency percentiles and throughput per scenario to
``benchmarks/results/BENCH_serve.json``.
"""

import json
import os
import signal
import statistics
import subprocess
import sys

import pytest

from repro.engine import ExperimentEngine
from repro.serve import (PHASES, ServeClient, dumps, request_from_json,
                         run_load, summary_to_json)

POOL_SIZE = min(4, os.cpu_count() or 1)
KERNELS = ("zeroin", "fehl", "spline", "decomp")
WARM_REQUESTS = 100
CLIENT_COUNTS = (1, 8, 64)
#: 41 pairs of 1,500-request runs (150-request runs are noisier still).
#: Between two identically configured servers one pair's "overhead"
#: spreads over an interquartile range of ~15% on 2 AMD EPYC vCPUs: the
#: median of 15 pairs still reached 6.7% (1 of 11 such A/A runs), the
#: median of 41 stayed within -3.1..+2.8% (3 runs), and an arm slowed
#: by ~10% measured 5.8% and 9.8% over 41 pairs
OVERHEAD_PAIRS = 41
OVERHEAD_REQUESTS = 1500
OVERHEAD_BUDGET = 0.05


def corpus() -> list[dict]:
    return [{"kernel": name, "int_regs": 8, "float_regs": 8,
             "mode": mode}
            for name in KERNELS for mode in ("chaitin", "remat")]


def boot_server(cache_dir, *extra_args) -> dict:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--jobs", str(POOL_SIZE), "--cache-dir", str(cache_dir),
         "--queue-limit", "512", "--max-batch", "64", *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    announce = proc.stdout.readline().strip()
    assert announce.startswith("# serving on "), announce
    port = int(announce.rsplit(":", 1)[1])
    return {"port": port, "proc": proc}


def stop_server(server: dict) -> None:
    proc = server["proc"]
    proc.send_signal(signal.SIGTERM)
    proc.wait(timeout=60)
    proc.stdout.close()


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    handle = boot_server(tmp_path_factory.mktemp("serve-cache"))
    yield handle
    stop_server(handle)


@pytest.fixture(scope="module")
def scenario_runs(server):
    port = server["port"]
    runs = {}

    with ServeClient("127.0.0.1", port) as probe:
        spawned_start = probe.metrics()["counters"].get("pool.spawned", 0)

    # cold: one client, every request a miss (pays spawn + execute)
    runs["cold_1"] = run_load("127.0.0.1", port, corpus(), clients=1,
                              total_requests=len(corpus()))

    with ServeClient("127.0.0.1", port) as probe:
        spawned_cold = probe.metrics()["counters"].get("pool.spawned", 0)

    # warm: the same corpus over a hot cache at increasing concurrency
    for clients in CLIENT_COUNTS:
        runs[f"warm_{clients}"] = run_load(
            "127.0.0.1", port, corpus(), clients=clients,
            total_requests=WARM_REQUESTS)

    with ServeClient("127.0.0.1", port) as probe:
        counters = probe.metrics()["counters"]

    runs["spawned_start"] = spawned_start
    runs["spawned_cold"] = spawned_cold
    runs["counters"] = counters
    return runs


def test_serve_throughput_and_amortization(scenario_runs, results_dir):
    cold = scenario_runs["cold_1"]
    warm64 = scenario_runs[f"warm_{CLIENT_COUNTS[-1]}"]
    counters = scenario_runs["counters"]

    for name in ("cold_1", *(f"warm_{c}" for c in CLIENT_COUNTS)):
        run = scenario_runs[name]
        assert run.failed == 0, (name, run)
        assert run.ok == run.requests, (name, run)

    # the perf gate: warm 64-client throughput >= 5x cold single-client
    assert warm64.throughput >= 5 * cold.throughput, \
        (warm64.throughput, cold.throughput)

    # spawn amortization: the cold pass spawns at most pool-size
    # workers, and the warm (cache-hot) runs spawn none at all
    spawned_total = counters.get("pool.spawned", 0)
    assert spawned_total - scenario_runs["spawned_start"] <= POOL_SIZE, \
        counters
    assert counters.get("pool.spawned", 0) == \
        scenario_runs["spawned_cold"], "warm runs spawned workers"

    # the warm runs were answered without re-execution
    assert counters["engine.executed"] == len(corpus())

    payload = {
        "pool_size": POOL_SIZE,
        "corpus": len(corpus()),
        "warm_requests": WARM_REQUESTS,
        "worker_spawns": spawned_total,
        "overload_rejections": counters.get(
            "serve.overload_rejections", 0),
        "deduplicated": counters.get("serve.deduplicated", 0),
        "speedup_warm64_vs_cold1": round(
            warm64.throughput / cold.throughput, 2)
        if cold.throughput else None,
        "runs": {name: scenario_runs[name].as_json()
                 for name in ("cold_1",
                              *(f"warm_{c}" for c in CLIENT_COUNTS))},
    }
    path = results_dir / "BENCH_serve.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n{json.dumps(payload, indent=2)}\n[saved to {path}]")


def test_served_bytes_match_local_engine(server):
    """Acceptance gate: cold and warm server responses are both
    byte-identical to a local ``run_many`` over the same requests."""
    local = ExperimentEngine(jobs=1, use_cache=False)
    expected = [dumps(summary_to_json(o))
                for o in local.run_many([request_from_json(spec)
                                         for spec in corpus()])]
    with ServeClient("127.0.0.1", server["port"]) as client:
        served = [dumps(client.allocate(**spec)) for spec in corpus()]
        again = [dumps(client.allocate(**spec)) for spec in corpus()]
    assert served == expected
    assert again == expected


def test_warm_single_request_latency(server, benchmark):
    """The benchmarked operation: one warm round-trip (memo hit)."""
    with ServeClient("127.0.0.1", server["port"]) as client:
        payload = corpus()[0]
        client.allocate(**payload)  # ensure hot
        benchmark(lambda: client.allocate(**payload))


def _warm_throughput(port: int) -> float:
    run = run_load("127.0.0.1", port, corpus(), clients=8,
                   total_requests=OVERHEAD_REQUESTS)
    assert run.failed == 0, run
    return run.throughput


def test_observability_overhead_and_phase_breakdown(
        tmp_path_factory, results_dir):
    """Full instrumentation (tracing + access log + flight recorder)
    costs at most ``OVERHEAD_BUDGET`` of warm throughput against an
    uninstrumented server: the median over ``OVERHEAD_PAIRS``
    interleaved pairs, so no single outlier run decides the gate.  The
    instrumented server's phase breakdown and artifacts land under
    ``benchmarks/results/``."""
    access_path = results_dir / "serve_access.jsonl"
    flight_path = results_dir / "serve_flight.json"
    for stale in (access_path, flight_path):
        if stale.exists():
            stale.unlink()

    base = boot_server(tmp_path_factory.mktemp("obs-base"),
                       "--no-request-tracing")
    instr = boot_server(tmp_path_factory.mktemp("obs-instr"),
                        "--access-log", str(access_path),
                        "--flight-dump", str(flight_path))
    try:
        # prime both caches so the measured arms serve memo hits only
        for handle in (base, instr):
            run = run_load("127.0.0.1", handle["port"], corpus(),
                           clients=1, total_requests=len(corpus()))
            assert run.failed == 0, run

        # paired runs, alternating which arm goes first, so machine
        # drift and run order hit both arms equally
        arms = {"base": base, "instr": instr}
        pairs = []
        for index in range(OVERHEAD_PAIRS):
            order = ("base", "instr") if index % 2 == 0 \
                else ("instr", "base")
            rps = {arm: _warm_throughput(arms[arm]["port"])
                   for arm in order}
            pairs.append({"first": order[0], **rps,
                          "overhead": 1.0 - rps["instr"] / rps["base"]})

        with ServeClient("127.0.0.1", instr["port"]) as probe:
            snapshot = probe.metrics()
    finally:
        stop_server(base)
        stop_server(instr)

    overheads = [pair["overhead"] for pair in pairs]
    overhead = statistics.median(overheads)
    q1, _, q3 = statistics.quantiles(overheads, n=4)
    assert overhead <= OVERHEAD_BUDGET, pairs

    # the per-phase breakdown the server measured for us
    histograms = snapshot["histograms"]
    phases = {name: histograms[f"serve.phase.{name}"]
              for name in PHASES
              if histograms.get(f"serve.phase.{name}", {}).get("count")}
    assert "execute" in phases and "parse" in phases
    latency = histograms["serve.request_seconds"]
    assert latency["count"] >= len(corpus()) + \
        OVERHEAD_PAIRS * OVERHEAD_REQUESTS

    # the artifacts CI uploads: one access line per request, and the
    # flight recorder dumped on drain
    lines = [json.loads(line)
             for line in access_path.read_text().splitlines()]
    assert len(lines) >= latency["count"]
    for line in lines[:20]:
        assert sum(line["phases"].values()) == pytest.approx(
            line["total_s"], rel=0.05, abs=1e-5), line
    flight = json.loads(flight_path.read_text())
    assert flight["slowest"], flight

    path = results_dir / "BENCH_serve.json"
    payload = json.loads(path.read_text()) if path.exists() else {}
    payload["observability"] = {
        "overhead_budget": OVERHEAD_BUDGET,
        "overhead_median": round(overhead, 4),
        "overhead_quartiles": [round(q1, 4), round(q3, 4)],
        "overhead_iqr": round(q3 - q1, 4),
        "pairs": [{"first": pair["first"],
                   "throughput_uninstrumented": round(pair["base"], 1),
                   "throughput_instrumented": round(pair["instr"], 1),
                   "overhead": round(pair["overhead"], 4)}
                  for pair in pairs],
        "request_seconds": {k: latency[k]
                            for k in ("count", "p50", "p90", "p99")},
        "phase_p50_s": {name: snap["p50"]
                        for name, snap in phases.items()},
        "access_log_lines": len(lines),
        "flight_recorded": flight["recorded"],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n{json.dumps(payload['observability'], indent=2)}"
          f"\n[saved to {path}]")

