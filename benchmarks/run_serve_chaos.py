"""The serve chaos suite: a real cluster under injected faults.

Usage::

    PYTHONPATH=src python benchmarks/run_serve_chaos.py [--backends N]
        [--requests N] [--seed N] [--out DIR]

Boots ``repro serve --backends N`` (router + real backend processes
sharing one sharded cache), loads a :class:`ServeFaultPlan` that kills
one backend per shard mid-request, drops one reply on the floor and
garbles another, then drives the corpus through a
:class:`ResilientClient` fleet and reconciles:

* every admitted request is answered exactly once — byte-identical to
  a fault-free serial engine run — or failed with a typed error;
* each planned fault fired exactly once, across backend restarts;
* the supervisor replaced every corpse and the cluster returned to
  full health, after which the whole corpus answers again.

Writes ``report.json`` and the routers' aggregated flight-recorder
dump (``flight.json``) under ``benchmarks/results/serve_chaos/``; CI
uploads the directory as an artifact and the exit status is nonzero
when any reconciliation fails — see ``docs/robustness.md``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import time
from concurrent import futures

from repro.engine import (ExperimentEngine, ServeFaultPlan, request_key)
from repro.ir import IRBuilder, function_to_text
from repro.serve import (ClusterConfig, ClusterHarness, HashRing,
                         ResilientClient, RouterConfig, ServeClient,
                         dumps, protocol, request_from_json,
                         summary_to_json)

DEFAULT_OUT = (pathlib.Path(__file__).parent / "results"
               / "serve_chaos")
VIRTUAL_NODES = 32


def chaos_function():
    """A small counted loop — a few milliseconds per request."""
    b = IRBuilder("chaos", n_params=1)
    n = b.param(0)
    i = b.ldi(0)
    iv = b.function.new_reg(i.rclass)
    b.copy_to(iv, i)
    acc = b.ldi(0)
    av = b.function.new_reg(acc.rclass)
    b.copy_to(av, acc)
    b.jmp("head")
    b.label("head")
    c = b.cmp_lt(iv, n)
    b.cbr(c, "body", "exit")
    b.label("body")
    b.copy_to(av, b.add(av, iv))
    b.copy_to(iv, b.addi(iv, 1))
    b.jmp("head")
    b.label("exit")
    b.out(av)
    b.ret()
    return b.finish()


def check(report: dict, name: str, ok: bool, detail: str = "") -> None:
    report["checks"].append({"name": name, "ok": bool(ok),
                             "detail": detail})
    marker = "ok" if ok else "FAIL"
    print(f"  [{marker}] {name}" + (f" — {detail}" if detail else ""))


def wait_until(predicate, timeout: float, what: str) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            print(f"  timed out waiting for {what}")
            return False
        time.sleep(0.05)
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--backends", type=int, default=2)
    parser.add_argument("--requests", type=int, default=16)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--out", default=str(DEFAULT_OUT))
    args = parser.parse_args(argv)

    out = pathlib.Path(args.out)
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)

    text = function_to_text(chaos_function())
    corpus = [{"ir_text": text, "int_regs": 4, "args": [n]}
              for n in range(args.requests)]
    keys = [request_key(request_from_json(s)) for s in corpus]

    # ground truth: fault-free, serial, uncached
    t0 = time.perf_counter()
    clean = ExperimentEngine(jobs=1, use_cache=False)
    expected = [dumps(summary_to_json(o))
                for o in clean.run_many([request_from_json(s)
                                         for s in corpus])]
    clean_s = time.perf_counter() - t0

    # one kill victim per backend, picked by the router's own ring so
    # every backend provably dies mid-request; one dropped and one
    # garbled reply among the survivors
    names = [f"b{i}" for i in range(args.backends)]
    ring = HashRing(names, virtual_nodes=VIRTUAL_NODES)
    by_primary: dict[str, list[int]] = {name: [] for name in names}
    for index, s in enumerate(corpus):
        by_primary[ring.primary(protocol.dumps(s))].append(index)
    if not all(by_primary.values()):
        print(f"corpus of {args.requests} left a backend idle; "
              "raise --requests")
        return 1
    kill_indices = [indices[0] for indices in by_primary.values()]
    survivors = [i for i in range(len(corpus))
                 if i not in kill_indices]
    drop_index, garble_index = survivors[0], survivors[1]

    plan = ServeFaultPlan(
        state_dir=str(out / "faults"),
        kill_keys=frozenset(keys[i] for i in kill_indices),
        drop_keys=frozenset({keys[drop_index]}),
        garble_keys=frozenset({keys[garble_index]}))
    plan_path = out / "plan.json"
    plan_path.write_text(json.dumps(plan.to_json(), indent=2) + "\n")

    report: dict = {
        "backends": args.backends,
        "requests": args.requests,
        "seed": args.seed,
        "plan": plan.describe(),
        "clean_serial_seconds": round(clean_s, 3),
        "checks": [],
    }
    print(f"serve chaos: {args.requests} requests over "
          f"{args.backends} backends, plan={plan.describe()}")

    cluster_config = ClusterConfig(
        backends=args.backends, jobs=1, cache_dir=out / "cache",
        serve_faults=plan_path)
    router_config = RouterConfig(
        virtual_nodes=VIRTUAL_NODES, ping_interval=0.05,
        ping_timeout=1.0, breaker_base=0.02, breaker_cap=0.5,
        failover_attempts=max(2, args.backends))

    t0 = time.perf_counter()
    with ClusterHarness(cluster_config, router_config) as cluster:
        client = ResilientClient("127.0.0.1", cluster.port,
                                 max_retries=12, backoff=0.05)
        with futures.ThreadPoolExecutor(args.clients) as pool:
            answers = list(pool.map(
                lambda s: dumps(client.allocate(**s)), corpus))
        chaos_s = time.perf_counter() - t0
        report["chaos_seconds"] = round(chaos_s, 3)
        print(f"fault-free serial: {clean_s:.2f}s; "
              f"chaos run: {chaos_s:.2f}s")

        mismatches = [f"request {i} differs"
                      for i, (got, want) in enumerate(zip(answers,
                                                          expected))
                      if got != want]
        check(report, "answers byte-identical to fault-free serial run",
              not mismatches, "; ".join(mismatches[:5]))
        check(report, f"{args.backends} backends killed mid-request, "
              "exactly once each",
              plan.claimed("kill") == args.backends,
              f"claimed {plan.claimed('kill')}")
        check(report, "one reply dropped, one garbled, exactly once",
              plan.claimed("drop") == 1 and plan.claimed("garble") == 1,
              f"drop={plan.claimed('drop')} "
              f"garble={plan.claimed('garble')}")

        check(report, "supervisor replaced every corpse",
              wait_until(lambda: cluster.supervisor.restarts
                         >= args.backends, 60.0, "restarts"),
              f"restarts={cluster.supervisor.restarts}")

        def healthy() -> int:
            with ServeClient("127.0.0.1", cluster.port,
                             timeout=10) as probe:
                return probe.call("ping").get("healthy", 0)

        check(report, "cluster recovered to full health",
              wait_until(lambda: healthy() >= args.backends, 60.0,
                         "full health"),
              f"healthy={healthy()}/{args.backends}")

        with ServeClient("127.0.0.1", cluster.port) as probe:
            counters = probe.metrics()["counters"]
            flight = probe.debug()
        report["router_counters"] = {
            name: counters.get(name, 0)
            for name in ("router.forwarded", "router.failovers",
                         "router.shed", "router.throttled",
                         "router.backend_restarts",
                         "router.failed_probes",
                         "router.backend_recoveries")}
        faults = args.backends + 2   # kills + drop + garble
        check(report, "every fault forced a failover",
              counters.get("router.failovers", 0) >= faults,
              f"failovers={counters.get('router.failovers', 0)}")
        check(report, "restarts visible in router counters",
              counters.get("router.backend_restarts", 0)
              >= args.backends,
              f"restarts={counters.get('router.backend_restarts', 0)}")

        again = [dumps(client.allocate(**s)) for s in corpus]
        check(report, "recovered cluster re-answers the whole corpus",
              again == expected)

    (out / "flight.json").write_text(json.dumps(flight, indent=2)
                                     + "\n")
    ok = all(c["ok"] for c in report["checks"])
    report["ok"] = ok
    (out / "report.json").write_text(json.dumps(report, indent=2)
                                     + "\n")
    print(f"report written to {out / 'report.json'}; "
          + ("ALL CHECKS PASSED" if ok else "RECONCILIATION FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
