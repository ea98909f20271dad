"""A threaded load generator for the allocation server.

``run_load`` opens one :class:`~repro.serve.client.ServeClient` per
simulated client, round-robins a request corpus across them, and
reports latency percentiles and sustained throughput — the numbers
``benchmarks/bench_serve.py`` gates on.  Retryable rejections
(``overload`` / ``draining`` / ``unavailable`` — see
:attr:`ServeError.retryable <repro.serve.client.ServeError.retryable>`)
are part of the protocol, not failures: the generator counts them and
retries with a short backoff honouring the server's ``retry_after``
hint.

For fairness experiments each simulated client can carry a stable
``client_id`` (the server's fair-admission token buckets meter by it)
and a per-request *think time*; the report then breaks latencies down
per client id, so a test can assert that a polite client's p99
survives a greedy neighbour.

Also runnable by hand::

    python -m repro.serve.loadgen --port 4540 --clients 8 --requests 100
"""

from __future__ import annotations

import argparse
import threading
import time
from dataclasses import dataclass, field

from ..obs.metrics import percentile
from .client import ServeClient, ServeError

__all__ = ["LoadReport", "default_corpus", "percentile", "run_load"]


@dataclass
class LoadReport:
    """What one load run measured."""

    clients: int = 0
    requests: int = 0
    ok: int = 0
    failed: int = 0
    #: retryable rejections absorbed (each was retried)
    rejected: int = 0
    duration: float = 0.0
    latencies: list[float] = field(default_factory=list, repr=False)
    #: per-``client_id`` latencies (only ids given to :func:`run_load`)
    client_latencies: dict[str, list[float]] = field(
        default_factory=dict, repr=False)

    @property
    def throughput(self) -> float:
        """Completed requests per second over the whole run."""
        return self.ok / self.duration if self.duration > 0 else 0.0

    def latency_ms(self, q: float) -> float:
        return percentile(self.latencies, q) * 1000.0

    def client_latency_ms(self, client_id: str, q: float) -> float:
        return percentile(self.client_latencies.get(client_id, []),
                          q) * 1000.0

    def as_json(self) -> dict:
        return {
            "clients": self.clients,
            "requests": self.requests,
            "ok": self.ok,
            "failed": self.failed,
            "rejected": self.rejected,
            "duration_s": round(self.duration, 6),
            "throughput_rps": round(self.throughput, 3),
            "p50_ms": round(self.latency_ms(50), 3),
            "p99_ms": round(self.latency_ms(99), 3),
            "client_p99_ms": {
                cid: round(self.client_latency_ms(cid, 99), 3)
                for cid in sorted(self.client_latencies)},
        }


def run_load(host: str, port: int, corpus: list[dict], clients: int,
             total_requests: int, op: str = "allocate",
             timeout: float = 120.0,
             client_ids: list[str] | None = None,
             think_time: float = 0.0,
             max_rejects: int = 10_000) -> LoadReport:
    """Fire *total_requests* (round-robin over *corpus*) from *clients*
    concurrent connections; returns the merged :class:`LoadReport`.

    *client_ids*, when given, assigns simulated client *i* the identity
    ``client_ids[i % len(client_ids)]`` — several threads may share one
    identity (a multi-connection tenant) and the server meters them as
    one.  *think_time* sleeps between a client's requests.
    *max_rejects* bounds retryable-rejection retries per request so an
    overloaded server fails the run instead of spinning forever.
    """
    assert corpus, "load corpus is empty"
    report = LoadReport(clients=clients, requests=total_requests)
    lock = threading.Lock()
    counts = [total_requests // clients] * clients
    for i in range(total_requests % clients):
        counts[i] += 1

    def worker(worker_index: int, quota: int) -> None:
        client_id = None
        if client_ids:
            client_id = client_ids[worker_index % len(client_ids)]
        ok = failed = rejected = 0
        latencies: list[float] = []
        with ServeClient(host, port, timeout=timeout,
                         client_id=client_id) as client:
            for n in range(quota):
                if think_time and n:
                    time.sleep(think_time)
                payload = corpus[(worker_index + n * clients)
                                 % len(corpus)]
                started = time.monotonic()
                rejects = 0
                while True:
                    try:
                        client.call(op, payload)
                        ok += 1
                    except ServeError as exc:
                        if exc.retryable and rejects < max_rejects:
                            rejected += 1
                            rejects += 1
                            hint = exc.retry_after
                            time.sleep(hint if hint is not None
                                       else 0.005)
                            continue
                        failed += 1
                    break
                latencies.append(time.monotonic() - started)
        with lock:
            report.ok += ok
            report.failed += failed
            report.rejected += rejected
            report.latencies.extend(latencies)
            if client_id is not None:
                report.client_latencies.setdefault(
                    client_id, []).extend(latencies)

    threads = [threading.Thread(target=worker, args=(i, counts[i]))
               for i in range(clients) if counts[i]]
    started = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    report.duration = time.monotonic() - started
    return report


def default_corpus(kernels: list[str] | None = None,
                   k: int = 8) -> list[dict]:
    """A small mixed corpus: each kernel under both allocator modes."""
    names = kernels or ["zeroin", "fehl", "spline"]
    return [{"kernel": name, "int_regs": k, "float_regs": k, "mode": mode}
            for name in names for mode in ("chaitin", "remat")]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.loadgen",
        description="drive load at a running allocation server")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--requests", type=int, default=100)
    parser.add_argument("--k", type=int, default=8,
                        help="register count of the corpus requests")
    parser.add_argument("--kernels", default=None,
                        help="comma-separated kernel names")
    parser.add_argument("--client-id", default=None,
                        help="stable client identity every simulated "
                             "client shares (fair-admission metering)")
    parser.add_argument("--think-time", type=float, default=0.0,
                        help="seconds each client idles between its "
                             "requests")
    args = parser.parse_args(argv)
    kernels = args.kernels.split(",") if args.kernels else None
    report = run_load(args.host, args.port,
                      default_corpus(kernels, args.k),
                      clients=args.clients,
                      total_requests=args.requests,
                      client_ids=[args.client_id]
                      if args.client_id else None,
                      think_time=args.think_time)
    import json

    print(json.dumps(report.as_json(), indent=2))
    return 0 if report.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
