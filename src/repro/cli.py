"""Command-line interface: ``python -m repro <command> ...``.

Commands

* ``compile FILE``  — MiniFort source → ILOC text on stdout
* ``allocate FILE`` — compile/parse, allocate, print the allocated ILOC
  (``--trace FILE.jsonl`` also records a full allocation trace)
* ``run FILE``      — compile/parse (optionally allocate) and interpret
* ``cgen FILE``     — emit the instrumented C translation (Figure 4)
* ``trace TARGET``  — record or inspect an allocation trace: ``TARGET``
  is a ``.jsonl`` trace to re-render, a source file to allocate, or a
  benchmark kernel name; ``--format jsonl|tree|summary`` picks the
  view and ``--diff OTHER.jsonl`` compares two traces round by round
  (see ``docs/observability.md``)
* ``opt FILE``      — run an explicit pass pipeline (``--passes
  dce,lvn,licm``) with optional ``--verify-after-each`` and
  ``--print-before/--print-after PASS`` IR dumps
* ``passes``        — list the registered passes and what each declares
  it preserves
* ``table1`` / ``table2`` / ``ablation`` / ``sweep`` — the experiments,
  executed through the allocation-experiment engine (``--jobs N`` for
  parallel fan-out, ``--no-cache`` to bypass the persistent result
  cache under ``benchmarks/results/cache/``, ``--timeout`` /
  ``--retries`` for the supervisor's failure policy).  Quarantined
  requests render as a partial-results appendix and exit nonzero
  instead of aborting the table (see ``docs/robustness.md``)
* ``cache {stats,verify,gc}`` — inspect, re-checksum, or sweep the
  persistent result cache and its ``quarantine/`` directory (``gc``
  also deletes entries of the pre-shard flat layout)
* ``serve``             — run the persistent allocation server: a worker
  pool spawned at start plus the shared result cache behind one
  JSONL/TCP front end with admission control, per-client fair
  admission, deadlines and work-conserving batching (no linger:
  batches form only under backlog); ``--access-log`` /
  ``--metrics-addr`` / ``--flight-dump`` wire up the service
  observability described in ``docs/observability.md`` (see
  ``docs/serving.md``)
* ``top HOST:PORT``     — live dashboard over a running server's
  ``metrics`` op: request rates, latency quantiles, queue depth,
  dedup/cache ratios, pool spawn/reuse (``--format table|json|prom``)

``FILE`` may be MiniFort (``.mf``) or textual ILOC (``.il``); anything
else is sniffed by content (ILOC starts with ``proc NAME NPARAMS``).
"""

from __future__ import annotations

import argparse
import os
import sys

from .frontend import compile_source
from .interp import run_function
from .ir import Function, function_to_text, parse_function
from .machine import machine_with
from .obs import (ALLOCATE_LINE_KEYS, Tracer, load_trace,
                  metrics_from_allocation, parse_trace, render_diff,
                  render_summary, render_tree, trace_to_text, write_trace)
from .regalloc import ALLOCATOR_NAMES, allocate
from .remat import RenumberMode


def _load(path: str) -> Function:
    with open(path) as handle:
        text = handle.read()
    if path.endswith(".il"):
        return parse_function(text)
    if path.endswith(".mf"):
        return compile_source(text)
    first = next((line for line in text.splitlines() if line.strip()), "")
    if first.startswith("proc") and len(first.split()) == 3 \
            and first.split()[2].isdigit():
        return parse_function(text)
    return compile_source(text)


def _machine(args: argparse.Namespace):
    return machine_with(args.k, args.kf if args.kf is not None else args.k)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", type=int, default=16,
                        help="integer register count (default 16)")
    parser.add_argument("--kf", type=int, default=None,
                        help="float register count (default: same as --k)")
    parser.add_argument("--mode", choices=[m.value for m in RenumberMode],
                        default="remat", help="allocator variant")
    parser.add_argument("--allocator", choices=list(ALLOCATOR_NAMES),
                        default="iterated",
                        help="allocation strategy: the paper's iterated "
                             "Chaitin/Briggs loop (default) or SSA "
                             "spill-everywhere (ignores --mode)")
    parser.add_argument("--opt", action="store_true",
                        help="run LVN/LICM/DCE before allocation")


def _add_engine(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for cache misses "
                             "(default: all cores)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the persistent result cache under "
                             "benchmarks/results/cache/")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persistent result cache directory "
                             "(default: benchmarks/results/cache/ or "
                             "$REPRO_CACHE_DIR)")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-attempt wall-clock budget; a worker "
                             "exceeding it is killed and the request "
                             "retried (default: no timeout)")
    parser.add_argument("--retries", type=int, default=3, metavar="N",
                        help="attempts per request before it is "
                             "quarantined as a failure (default 3)")


def _engine(args: argparse.Namespace):
    from .engine import ExperimentEngine, SupervisorConfig

    return ExperimentEngine(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        supervisor=SupervisorConfig(timeout=args.timeout,
                                    max_attempts=args.retries))


def _report_failures(engine) -> int:
    """Print the partial-results appendix to stderr; nonzero when the
    rendered tables are missing quarantined requests."""
    if not engine.failures:
        return 0
    from .experiments import render_failures

    print(render_failures(engine.failures), file=sys.stderr)
    return 1


def _maybe_optimize(fn: Function, args: argparse.Namespace) -> None:
    if getattr(args, "opt", False):
        from .opt import optimize
        optimize(fn)


def cmd_compile(args: argparse.Namespace) -> int:
    fn = _load(args.file)
    _maybe_optimize(fn, args)
    print(function_to_text(fn), end="")
    return 0


def _trace_meta(result, source: str) -> dict:
    """The identity block of a trace's ``meta`` line."""
    machine = result.machine
    return {"function": result.function.name, "mode": result.mode.value,
            "allocator": result.allocator, "machine": machine.name,
            "int_regs": machine.int_regs,
            "float_regs": machine.float_regs, "source": source}


def cmd_allocate(args: argparse.Namespace) -> int:
    fn = _load(args.file)
    _maybe_optimize(fn, args)
    tracer = Tracer(capture_events=True) if args.trace else None
    result = allocate(fn, machine=_machine(args),
                      mode=RenumberMode(args.mode),
                      allocator=args.allocator, tracer=tracer)
    print(function_to_text(result.function), end="")
    registry = metrics_from_allocation(result)
    print("# " + registry.render_line(ALLOCATE_LINE_KEYS), file=sys.stderr)
    if args.trace:
        write_trace(args.trace, result.trace,
                    _trace_meta(result, args.file), registry)
        print(f"# trace written to {args.trace}", file=sys.stderr)
    return 0


def cmd_opt(args: argparse.Namespace) -> int:
    from .passes import (AnalysisManager, PassPipeline, PreservedAnalyses,
                         make_pass)

    fn = _load(args.file)
    try:
        passes = [make_pass(name.strip())
                  for name in args.passes.split(",") if name.strip()]
    except KeyError as exc:
        raise SystemExit(f"repro opt: {exc.args[0]}")
    if not passes:
        raise SystemExit("repro opt: --passes named no passes")
    am = AnalysisManager(fn)
    pipeline = PassPipeline(
        passes,
        verify_after_each=args.verify_after_each,
        print_before=args.print_before,
        print_after=args.print_after,
        dump=lambda line: print(line, file=sys.stderr))
    report = pipeline.run(fn, am)
    print(function_to_text(fn), end="")
    changed = [name for name, preserved
               in zip(report.pass_names, report.preserved)
               if preserved != PreservedAnalyses.all()]
    print(f"# passes={','.join(report.pass_names)} "
          f"changed={','.join(changed) or '-'} "
          f"verified={report.verifications} "
          f"analyses_computed={am.n_computed()} "
          f"analyses_reused={am.n_reused()}", file=sys.stderr)
    return 0


def cmd_passes(args: argparse.Namespace) -> int:
    from .passes import PASS_REGISTRY, make_pass

    width = max(len(name) for name in PASS_REGISTRY)
    for name in sorted(PASS_REGISTRY):
        p = make_pass(name)
        doc = (type(p).__doc__ or "").strip().splitlines()
        summary = doc[0] if doc else ""
        print(f"{name:<{width}}  preserves: {p.preserves.describe()}")
        if summary:
            print(f"{'':<{width}}  {summary}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    fn = _load(args.file)
    _maybe_optimize(fn, args)
    machine = _machine(args)
    if args.allocated:
        fn = allocate(fn, machine=machine,
                      mode=RenumberMode(args.mode),
                      allocator=args.allocator).function
    run = run_function(fn, args=[int(a) for a in args.args])
    for value in run.output:
        print(value)
    counts = " ".join(f"{cls.value}={n}"
                      for cls, n in sorted(run.counts.items(),
                                           key=lambda kv: kv[0].value))
    print(f"# steps={run.steps} cycles={machine.cycles(run.counts)} "
          f"{counts}", file=sys.stderr)
    return 0


def cmd_cgen(args: argparse.Namespace) -> int:
    from .cgen import emit_function

    fn = _load(args.file)
    _maybe_optimize(fn, args)
    if args.allocated:
        fn = allocate(fn, machine=_machine(args),
                      mode=RenumberMode(args.mode),
                      allocator=args.allocator).function
    print(emit_function(fn), end="")
    return 0


def _trace_function(target: str) -> tuple[Function, str]:
    """Resolve a ``repro trace`` TARGET that is not a ``.jsonl`` trace:
    a source file on disk, or a kernel/program name from the benchmark
    suite (a program name picks its first kernel)."""
    if os.path.exists(target):
        return _load(target), target
    from .benchsuite import ALL_KERNELS, KERNELS_BY_NAME

    kernel = KERNELS_BY_NAME.get(target)
    if kernel is None:
        kernel = next((k for k in ALL_KERNELS if k.program == target), None)
    if kernel is None:
        raise SystemExit(
            f"repro trace: {target!r} is neither a file, a kernel name, "
            f"nor a program name (try one of: "
            f"{', '.join(sorted(KERNELS_BY_NAME))})")
    return kernel.compile(), kernel.name


def cmd_trace(args: argparse.Namespace) -> int:
    if args.target.endswith(".jsonl") and os.path.exists(args.target):
        with open(args.target) as handle:
            text = handle.read()
    else:
        fn, source = _trace_function(args.target)
        _maybe_optimize(fn, args)
        tracer = Tracer(capture_events=True)
        result = allocate(fn, machine=_machine(args),
                          mode=RenumberMode(args.mode),
                          allocator=args.allocator, tracer=tracer)
        text = trace_to_text(result.trace, _trace_meta(result, source),
                             metrics_from_allocation(result))
    doc = parse_trace(text)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"# trace written to {args.out}", file=sys.stderr)
    if args.diff:
        other = load_trace(args.diff)
        print(render_diff(other, doc,
                          a_name=args.diff, b_name=args.target))
        return 0
    if args.format == "jsonl":
        print(text, end="")
    elif args.format == "tree":
        print(render_tree(doc))
    else:
        print(render_summary(doc))
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    from .experiments import generate_table1

    engine = _engine(args)
    print(generate_table1(machine=_machine(args),
                          optimize_first=args.opt,
                          engine=engine,
                          allocator=args.allocator).render())
    return _report_failures(engine)


def cmd_table2(args: argparse.Namespace) -> int:
    from .experiments import generate_table2

    # timing requests are cacheable=False by construction, so the
    # engine only contributes parallel fan-out here — never stale times
    engine = _engine(args)
    print(generate_table2(repeats=args.repeats, engine=engine).render())
    return _report_failures(engine)


def cmd_ablation(args: argparse.Namespace) -> int:
    from .experiments import run_ablation, run_heuristic_ablation

    engine = _engine(args)
    print(run_ablation(engine=engine, allocator=args.allocator).render())
    print()
    print(run_heuristic_ablation(engine=engine,
                                 allocator=args.allocator).render())
    return _report_failures(engine)


def cmd_sweep(args: argparse.Namespace) -> int:
    from .experiments import run_register_sweep

    engine = _engine(args)
    print(run_register_sweep(engine=engine,
                             allocator=args.allocator).render())
    return _report_failures(engine)


def cmd_ssa_compare(args: argparse.Namespace) -> int:
    from .experiments import run_allocator_comparison

    engine = _engine(args)
    print(run_allocator_comparison(engine=engine).render())
    return _report_failures(engine)


def cmd_cache(args: argparse.Namespace) -> int:
    import json

    from .engine import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.action == "stats":
        print(json.dumps(cache.stats_report(), indent=2))
    elif args.action == "verify":
        ok, corrupt = cache.verify()
        print(f"verified {ok + corrupt} entries: {ok} ok, "
              f"{corrupt} corrupt (quarantined)")
        return 1 if corrupt else 0
    else:  # gc
        swept = cache.gc()
        print(f"removed {swept['quarantined_removed']} quarantined "
              f"entries, {swept['tmp_removed']} stray temp files and "
              f"{swept['flat_removed']} flat-layout entries")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .engine import ExperimentEngine, SupervisorConfig, WorkerPool
    from .serve import ServeConfig, run_server

    def announce(host: str, port: int) -> None:
        print(f"# serving on {host}:{port}", flush=True)

    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    pool = WorkerPool(jobs)
    engine = ExperimentEngine(
        jobs=jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        supervisor=SupervisorConfig(timeout=args.timeout,
                                    max_attempts=args.retries),
        pool=pool)
    config = ServeConfig(host=args.host, port=args.port,
                         queue_limit=args.queue_limit,
                         max_batch=args.max_batch,
                         trace_requests=not args.no_request_tracing,
                         access_log=args.access_log,
                         flight_slots=args.flight_slots,
                         flight_dump=args.flight_dump,
                         metrics_addr=args.metrics_addr)

    def announce_metrics(host: str, port: int) -> None:
        print(f"# metrics on http://{host}:{port}/metrics", flush=True)

    try:
        return asyncio.run(run_server(engine, config, announce=announce,
                                      announce_metrics=announce_metrics))
    finally:
        pool.close()


def cmd_top(args: argparse.Namespace) -> int:
    from .serve.top import run_top

    host, _, port = args.addr.rpartition(":")
    try:
        iterations = 1 if args.once else args.iterations
        return run_top(host or "127.0.0.1", int(port),
                       interval=args.interval, iterations=iterations,
                       fmt=args.format)
    except KeyboardInterrupt:
        return 0
    except ConnectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Rematerialization (Briggs/Cooper/Torczon, PLDI 1992) "
                    "— reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="lower MiniFort to ILOC")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("allocate", help="allocate registers")
    p.add_argument("file")
    p.add_argument("--trace", metavar="FILE.jsonl", default=None,
                   help="record a full allocation trace to FILE.jsonl")
    _add_common(p)
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser("opt", help="run an explicit pass pipeline")
    p.add_argument("file")
    p.add_argument("--passes", default="lvn,licm,dce", metavar="P1,P2,...",
                   help="comma-separated pass names (see `repro passes`; "
                        "default lvn,licm,dce)")
    p.add_argument("--verify-after-each", action="store_true",
                   help="verify the IR after every pass")
    p.add_argument("--print-before", metavar="PASS", action="append",
                   default=[], help="dump IR to stderr before PASS "
                                    "('all' for every pass)")
    p.add_argument("--print-after", metavar="PASS", action="append",
                   default=[], help="dump IR to stderr after PASS "
                                    "('all' for every pass)")
    p.set_defaults(func=cmd_opt)

    p = sub.add_parser("passes",
                       help="list registered passes and their "
                            "invalidation contracts")
    p.set_defaults(func=cmd_passes)

    p = sub.add_parser("run", help="interpret a routine")
    p.add_argument("file")
    p.add_argument("args", nargs="*", help="integer arguments")
    p.add_argument("--allocated", action="store_true",
                   help="allocate before running")
    _add_common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("cgen", help="emit instrumented C (Figure 4)")
    p.add_argument("file")
    p.add_argument("--allocated", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_cgen)

    p = sub.add_parser("trace", help="record or inspect an allocation "
                                     "trace")
    p.add_argument("target",
                   help="a .jsonl trace to inspect, a source FILE to "
                        "allocate, or a benchmark kernel/program name")
    p.add_argument("--format", choices=["jsonl", "tree", "summary"],
                   default="summary", help="how to render the trace "
                                           "(default: summary)")
    p.add_argument("--out", metavar="FILE.jsonl", default=None,
                   help="also write the trace JSONL to FILE.jsonl")
    p.add_argument("--diff", metavar="OTHER.jsonl", default=None,
                   help="compare against another trace round by round "
                        "instead of rendering")
    _add_common(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("table1", help="regenerate Table 1")
    _add_common(p)
    _add_engine(p)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("table2", help="regenerate Table 2")
    p.add_argument("--repeats", type=int, default=5)
    _add_engine(p)
    p.set_defaults(func=cmd_table2)

    p = sub.add_parser("ablation", help="Section 6 + heuristic ablations")
    p.add_argument("--allocator", choices=list(ALLOCATOR_NAMES),
                   default="iterated", help="allocation strategy")
    _add_engine(p)
    p.set_defaults(func=cmd_ablation)

    p = sub.add_parser("sweep", help="register-set size sweep")
    p.add_argument("--allocator", choices=list(ALLOCATOR_NAMES),
                   default="iterated", help="allocation strategy")
    _add_engine(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("ssa-compare",
                       help="head-to-head: SSA spill-everywhere vs the "
                            "iterated allocator across the register "
                            "sweep")
    _add_engine(p)
    p.set_defaults(func=cmd_ssa_compare)

    p = sub.add_parser("cache", help="inspect or maintain the persistent "
                                     "result cache")
    p.add_argument("action", choices=["stats", "verify", "gc"],
                   help="stats: occupancy snapshot (JSON); verify: "
                        "re-checksum every entry, quarantining corrupt "
                        "ones (exit 1 if any); gc: sweep quarantine/ "
                        "and stray temp files")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="cache directory (default: "
                        "benchmarks/results/cache/ or $REPRO_CACHE_DIR)")
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser("serve", help="run the persistent allocation "
                                     "server (JSONL over TCP)",
                       description="Serve allocation requests as JSONL "
                                   "over TCP from this one process.  The "
                                   "worker pool (--jobs) is spawned at "
                                   "start; each batch is dispatched as "
                                   "soon as the previous one finishes, "
                                   "taking every request queued "
                                   "meanwhile (up to --max-batch).  "
                                   "Requests that name a v2 'client' "
                                   "are metered per client (500/s, "
                                   "bursts of 250); a spent 'deadline_s' "
                                   "is answered 'expired'.")
    p.add_argument("--host", default="127.0.0.1",
                   help="listen address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=0,
                   help="listen port; 0 binds an ephemeral port "
                        "(announced as '# serving on HOST:PORT')")
    p.add_argument("--queue-limit", type=int, default=256, metavar="N",
                   help="admission bound — requests beyond N pending "
                        "are rejected with a typed overload error "
                        "(default 256)")
    p.add_argument("--max-batch", type=int, default=32, metavar="N",
                   help="the most queued requests one engine batch "
                        "takes; a batch dispatches at once, without "
                        "waiting to fill (default 32)")
    p.add_argument("--access-log", default=None, metavar="FILE",
                   help="append one JSON access-log line per request "
                        "to FILE (op, key, outcome, retries, per-phase "
                        "latency breakdown)")
    p.add_argument("--metrics-addr", default=None, metavar="HOST:PORT",
                   help="also serve a Prometheus text exposition of "
                        "the metrics snapshot at this address")
    p.add_argument("--flight-slots", type=int, default=64, metavar="N",
                   help="stitched traces the flight recorder keeps "
                        "(N slowest + N most recent failures; "
                        "default 64)")
    p.add_argument("--flight-dump", default=None, metavar="FILE",
                   help="write the flight recorder dump to FILE when "
                        "the server drains")
    p.add_argument("--no-request-tracing", action="store_true",
                   help="skip per-request span stitching (lifecycle "
                        "stamps and latency histograms stay on)")
    _add_engine(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("top", help="live dashboard over a running "
                                   "allocation server's metrics op")
    p.add_argument("addr", metavar="HOST:PORT",
                   help="the server address (as announced by "
                        "'# serving on HOST:PORT')")
    p.add_argument("--interval", type=float, default=2.0,
                   metavar="SECONDS",
                   help="seconds between polls (default 2.0)")
    p.add_argument("--iterations", type=int, default=0, metavar="N",
                   help="stop after N polls (default: run until ^C)")
    p.add_argument("--once", action="store_true",
                   help="poll once and exit (same as --iterations 1)")
    p.add_argument("--format", choices=["table", "json", "prom"],
                   default="table",
                   help="render as the dashboard table, the raw JSON "
                        "snapshot, or Prometheus text (default table)")
    p.set_defaults(func=cmd_top)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
