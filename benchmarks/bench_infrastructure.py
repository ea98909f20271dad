"""Throughput benchmarks for the substrates: interpreter, SSA
construction, interference-graph build, liveness and the front end.
The interpreter's is a race against the seed interpreter it replaced.

These are not paper experiments but keep the reproduction's moving parts
honest — a slow substrate would distort Table 2's phase proportions.
"""

import statistics
import time

import pytest

from repro.analysis import compute_dominance, compute_liveness, compute_loops
from repro.benchsuite import ALL_KERNELS, KERNELS_BY_NAME
from repro.frontend import compile_source
from repro.interp import run_function
from repro.obs import Tracer
from repro.regalloc import allocate, build_interference_graph, run_renumber
from repro.remat import RenumberMode
from repro.ssa import construct_ssa

BIG = KERNELS_BY_NAME["twldrv"]
#: interleaved pairs behind the pass-overhead gate.  The FMM suite takes
#: ~50 ms, and on a shared 2-vCPU Intel Xeon (Python 3.11.7) one pair's
#: ratio spreads over an interquartile range of about 0.96-1.04.  Over
#: repeated runs the best of 15 read 0.996-1.031 (while the managed arm
#: still copied each function twice); the median of 101 pairs, each arm
#: copying once, read 0.995-1.005
PASS_OVERHEAD_PAIRS = 101
#: the decode-once interpreter must beat the seed interpreter by this much
#: (measured 17.7x, 16.8x and 11.1x under Python 3.10, 3.11 and 3.12 on a
#: 2-vCPU AMD EPYC VM)
INTERP_SPEEDUP_FLOOR = 5.0


def test_interpreter_throughput(results_dir):
    """The decode-once interpreter against the seed interpreter it
    replaced, kept in ``tests/reference_impl.py`` (CI runs this with
    ``PYTHONPATH=src:.``, as it does the build-scaling gate): the 48
    suite kernels with their default arguments, interleaved best-of-5 in
    one process.  The gate is a 5x floor; both times and the ratio land
    in ``BENCH_interp.json``."""
    import json

    from tests.reference_impl import ref_run_function

    suite = [(kernel.compile(), list(kernel.args)) for kernel in ALL_KERNELS]

    def run_suite(run):
        return sum(run(fn, args=args).steps for fn, args in suite)

    steps = run_suite(run_function)
    assert steps == run_suite(ref_run_function)
    t_decoded, t_seed = _race(lambda: run_suite(run_function),
                              lambda: run_suite(ref_run_function),
                              repeats=5)
    ratio = t_seed / t_decoded
    payload = {
        "benchmark": "interpreter_race",
        "unit": "seconds (best of 5, interleaved)",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "suite": f"{len(suite)} suite kernels, default args",
        "steps": steps,
        "decoded_seconds": round(t_decoded, 6),
        "seed_seconds": round(t_seed, 6),
        "speedup": round(ratio, 2),
        "floor": INTERP_SPEEDUP_FLOOR,
    }
    (results_dir / "BENCH_interp.json").write_text(
        json.dumps(payload, indent=2) + "\n")
    print("\n" + json.dumps(payload, indent=2))
    assert ratio >= INTERP_SPEEDUP_FLOOR, payload


def test_frontend_throughput(benchmark):
    benchmark(lambda: compile_source(BIG.source))


def test_ssa_construction_throughput(benchmark):
    def job():
        fn = BIG.compile()
        fn.split_critical_edges()
        return construct_ssa(fn)

    benchmark(job)


def test_liveness_throughput(benchmark):
    fn = BIG.compile()
    benchmark(lambda: compute_liveness(fn))


def test_dominance_and_loops_throughput(benchmark):
    fn = BIG.compile()

    def job():
        dom = compute_dominance(fn)
        return compute_loops(fn, dom)

    benchmark(job)


def test_interference_build_throughput(benchmark):
    fn = BIG.compile()
    fn.split_critical_edges()
    run_renumber(fn, RenumberMode.REMAT)
    graph = benchmark(lambda: build_interference_graph(fn))
    assert graph.n_edges() > 100


def test_span_machinery_throughput(benchmark):
    """Raw cost of the span open/close path (two clock calls plus list
    bookkeeping) — the whole per-phase price of tracing."""
    def job():
        tracer = Tracer()
        with tracer.span("allocate"):
            for i in range(100):
                with tracer.span("round", index=i):
                    pass
        return tracer

    tracer = benchmark(job)
    assert len(tracer.root.children) == 100


def test_disabled_tracer_overhead_under_three_percent():
    """ISSUE acceptance: the disabled tracing path costs < 3% of a
    kernel-suite allocation.

    Measured structurally rather than by differencing two noisy
    end-to-end timings: count the spans and event-guard checks one real
    ``twldrv`` allocation performs, time that much span machinery in
    isolation, and compare against the allocation's own wall clock.
    """
    fn = BIG.compile()
    allocate(fn)  # warm every lru_cache / import before timing
    alloc_time = min(_timed_allocation(fn) for _ in range(3))

    # a captured run tells us how many spans and events a traced
    # allocation of this kernel produces; each emitted event sits
    # behind one ``events_enabled`` guard on the disabled path
    tracer = Tracer(capture_events=True)
    traced = allocate(BIG.compile(), tracer=tracer)
    n_spans = sum(1 for _ in traced.trace.walk())
    n_guards = traced.trace.n_events()

    reps = 100
    t0 = time.perf_counter()
    for _ in range(reps):
        probe = Tracer()
        with probe.span("allocate"):
            for _ in range(n_spans - 1):
                with probe.span("phase"):
                    pass
            for _ in range(n_guards):
                if probe.events_enabled:
                    pass  # pragma: no cover - guard is always False
    tracing_cost = (time.perf_counter() - t0) / reps

    assert tracing_cost < 0.03 * alloc_time, (
        f"span/guard machinery {tracing_cost * 1e3:.3f}ms vs allocation "
        f"{alloc_time * 1e3:.3f}ms ({tracing_cost / alloc_time:.1%})")


def _timed_allocation(fn) -> float:
    t0 = time.perf_counter()
    allocate(fn.clone())
    return time.perf_counter() - t0


def test_interference_rebuild_with_cached_liveness(benchmark):
    """The coalesce-loop fast path: rebuilds reuse the round's liveness
    fixed point instead of recomputing it."""
    fn = BIG.compile()
    fn.split_critical_edges()
    run_renumber(fn, RenumberMode.REMAT)
    liveness = compute_liveness(fn)
    graph = benchmark(lambda: build_interference_graph(fn, liveness))
    assert graph.n_edges() > 100


# -- pass-pipeline overhead -------------------------------------------------------

def _direct_allocate(fn, machine, mode):
    """The iterated allocation loop with its phase functions called
    directly: no AnalysisManager, no invalidation bookkeeping — the
    baseline the pipeline-managed ``allocate`` is raced against.

    It does the managed path's analysis work by hand.  Dominance and
    loops are computed once.  Each round's liveness lives in a local:
    the interference build computes it, the coalescer renames it in
    place, spill insertion patches it through its delta, and the next
    round's SSA construction prunes with it, so only the first round's
    SSA construction and each build run a fixed point.  Spans and the
    final verification are kept (both predate the pass layer), so the
    race isolates exactly the manager's cost.  Decision-for-decision
    identical by construction (asserted below)."""
    from repro.analysis import compute_dominance, compute_loops
    from repro.ir import verify_function
    from repro.regalloc.coalesce import build_coalesce_loop
    from repro.regalloc.select import find_partners, select
    from repro.regalloc.simplify import simplify
    from repro.regalloc.spillcode import insert_spill_code
    from repro.regalloc.spillcost import compute_spill_costs
    from repro.regalloc.strategy import AllocationStats, _assign_physical
    from repro.remat import apply_plan, plan_unions, propagate_tags
    from repro.ssa import SSAGraph

    tracer = Tracer()
    with tracer.span("allocate", fn=fn.name, mode=mode.value,
                     machine=machine.name):
        with tracer.span("clone"):
            work = fn.clone()
        work.remove_unreachable_blocks()
        work.split_critical_edges()
        with tracer.span("cfa"):
            dom = compute_dominance(work)
            loops = compute_loops(work, dom)
        stats = AllocationStats()
        no_spill_regs = set()
        liveness = None  # round 1's SSA construction computes its own
        for round_index in range(50):
            with tracer.span("round", index=round_index):
                with tracer.span("renumber"):
                    info = construct_ssa(work, dom=dom, liveness=liveness)
                    tags = None
                    if mode is RenumberMode.REMAT:
                        tags = propagate_tags(SSAGraph.build(work, info))
                    renumbered = apply_plan(
                        work, info, plan_unions(work, info, tags, mode),
                        tags, tracer=tracer)
                no_spill = {
                    lr for lr, values in renumbered.members.items()
                    if any(info.orig_reg[v] in no_spill_regs
                           for v in values)}
                with tracer.span("build"):
                    liveness = compute_liveness(work)
                    graph, _cstats = build_coalesce_loop(
                        work, machine, build_interference_graph,
                        no_spill=no_spill, coalesce_splits=True,
                        liveness=liveness, tracer=tracer)
                with tracer.span("costs"):
                    costs = compute_spill_costs(work, loops, machine,
                                                no_spill=no_spill,
                                                tracer=tracer)
                with tracer.span("color"):
                    order = simplify(graph, machine, costs, tracer=tracer)
                    chosen = select(graph, order, machine,
                                    partners=find_partners(work),
                                    tracer=tracer)
                    chosen.spilled.extend(order.pessimistic_spills)
                if not chosen.spilled:
                    _assign_physical(work, chosen.coloring, stats)
                    break
                with tracer.span("spill"):
                    spill_stats = insert_spill_code(work, chosen.spilled,
                                                    costs)
                liveness.apply_delta(spill_stats.delta)
                no_spill_regs = no_spill | spill_stats.new_temps
        else:
            raise AssertionError("direct replica did not converge")
        verify_function(work, require_physical=True,
                        max_int_reg=machine.int_regs,
                        max_float_reg=machine.float_regs)
    return work


def _direct_optimize(fn, max_rounds=4):
    """The pre-refactor ``optimize`` fixed point: raw transform calls,
    no shared manager, no PassPipeline."""
    from repro.opt.dce import eliminate_dead_code
    from repro.opt.licm import hoist_loop_invariants
    from repro.opt.lvn import run_lvn

    for _ in range(max_rounds):
        lvn = run_lvn(fn)
        licm = hoist_loop_invariants(fn)
        dce = eliminate_dead_code(fn)
        if lvn.replaced == 0 and licm.hoisted == 0 and dce.removed == 0:
            break


def _race(job_a, job_b, repeats=15):
    """Best-of-N for two jobs with interleaved samples, so clock-speed
    drift hits both sides equally."""
    job_a(), job_b()  # warm caches outside the timed region
    best_a = best_b = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        job_a()
        best_a = min(best_a, time.perf_counter() - t0)
        t0 = time.perf_counter()
        job_b()
        best_b = min(best_b, time.perf_counter() - t0)
    return best_a, best_b


def _paired_ratio(job_a, job_b, pairs):
    """Per-arm median CPU seconds and the quartiles of the per-pair
    ratio a/b over *pairs* interleaved pairs, alternating which job goes
    first, so machine drift and run order hit both arms equally.  Both
    jobs are single-threaded and in-process, so this process's CPU time
    measures them without the time other tenants of the machine take."""
    job_a(), job_b()  # warm caches outside the timed region
    times = {job_a: [], job_b: []}
    ratios = []
    for index in range(pairs):
        order = (job_a, job_b) if index % 2 == 0 else (job_b, job_a)
        for job in order:
            t0 = time.process_time()
            job()
            times[job].append(time.process_time() - t0)
        ratios.append(times[job_a][-1] / times[job_b][-1])
    return (statistics.median(times[job_a]), statistics.median(times[job_b]),
            statistics.quantiles(ratios, n=4))


def test_pass_overhead_within_two_percent(results_dir):
    """Driving allocation through the pass layer (one AnalysisManager,
    PreservedAnalyses invalidation) costs <= 2% over direct phase calls
    on a whole kernel-suite run — the median of the per-pair ratios over
    ``PASS_OVERHEAD_PAIRS`` interleaved pairs — and the
    redundant-analysis accounting shows what the manager saves."""
    import json

    from repro.benchsuite import FMM_KERNELS
    from repro.ir import function_to_text
    from repro.machine import machine_with
    from repro.opt import optimize

    machine = machine_with(8, 8)
    mode = RenumberMode.REMAT
    fns = [kernel.compile() for kernel in FMM_KERNELS]

    totals = {"rounds": 0, "computed": 0, "reused": 0, "liveness": 0}
    for fn in fns:
        result = allocate(fn, machine=machine, mode=mode)
        direct_fn = _direct_allocate(fn, machine, mode)
        assert function_to_text(result.function) == \
            function_to_text(direct_fn), fn.name
        stats = result.stats
        # the manager bounds recomputation: one liveness fixed point per
        # build plus the first round's SSA pruning (later rounds prune
        # with the spill-patched liveness), CFG analyses exactly once
        assert stats.n_liveness_computed == stats.n_rounds + 1
        assert stats.n_analyses_computed == stats.n_liveness_computed + 2
        totals["rounds"] += stats.n_rounds
        totals["computed"] += stats.n_analyses_computed
        totals["reused"] += stats.n_analyses_reused
        totals["liveness"] += stats.n_liveness_computed

    # allocate() clones its input, as the replica does: both arms copy
    # each function exactly once
    def managed_suite():
        for fn in fns:
            allocate(fn, machine=machine, mode=mode)

    def direct_suite():
        for fn in fns:
            _direct_allocate(fn, machine, mode)

    t_managed, t_direct, (q1, alloc_ratio, q3) = _paired_ratio(
        managed_suite, direct_suite, PASS_OVERHEAD_PAIRS)

    opt_seed = BIG.compile()
    t_opt_managed, t_opt_direct = _race(
        lambda: optimize(opt_seed.clone()),
        lambda: _direct_optimize(opt_seed.clone()))

    payload = {
        "benchmark": "pass_overhead",
        "unit": f"seconds (allocate: CPU time, median of "
                f"{PASS_OVERHEAD_PAIRS} interleaved pairs; optimize: wall "
                "time, best of 15, interleaved)",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "suite": f"FMM x {len(fns)} kernels",
        "machine": machine.name,
        "allocate_managed_seconds": round(t_managed, 6),
        "allocate_direct_seconds": round(t_direct, 6),
        "allocate_overhead_ratio": round(alloc_ratio, 4),
        "allocate_overhead_ratio_q1": round(q1, 4),
        "allocate_overhead_ratio_q3": round(q3, 4),
        "optimize_managed_seconds": round(t_opt_managed, 6),
        "optimize_direct_seconds": round(t_opt_direct, 6),
        "optimize_overhead_ratio": round(t_opt_managed / t_opt_direct, 4),
        "suite_rounds": totals["rounds"],
        "analyses_computed": totals["computed"],
        "analyses_reused": totals["reused"],
        "liveness_computed": totals["liveness"],
    }
    (results_dir / "BENCH_passes.json").write_text(
        json.dumps(payload, indent=2) + "\n")
    print("\n" + json.dumps(payload, indent=2))
    assert alloc_ratio <= 1.02, payload


# -- supervised-executor overhead -------------------------------------------------

def test_supervised_overhead_within_five_percent(results_dir):
    """ISSUE acceptance: the supervised executor (per-request pipes,
    deadline bookkeeping, crash watching) costs < 5% over a plain
    ``multiprocessing.Pool.map`` on the same fault-free batch."""
    import json
    import multiprocessing

    from repro.engine import execute_request, request_key
    from repro.engine.supervisor import run_supervised
    from repro.machine import machine_with

    kernel = KERNELS_BY_NAME["repvid"]
    from repro.experiments import kernel_request

    requests = [kernel_request(kernel, machine_with(k, k), mode)
                for k in range(4, 24)
                for mode in (RenumberMode.CHAITIN, RenumberMode.REMAT)]
    items = [(request_key(r), r) for r in requests]
    jobs = 2
    ctx = multiprocessing.get_context("spawn")

    def pool_suite():
        with ctx.Pool(jobs) as pool:
            pool.map(execute_request, requests)

    def supervised_suite():
        outcomes, stats = run_supervised(items, jobs)
        assert stats.retries == 0 and stats.worker_crashes == 0
        assert len(outcomes) == len(items)

    t_supervised, t_pool = _race(supervised_suite, pool_suite, repeats=5)
    ratio = t_supervised / t_pool

    payload = {
        "requests": len(requests),
        "jobs": jobs,
        "unit": "seconds (best of 5, interleaved)",
        "pool_map_seconds": round(t_pool, 4),
        "supervised_seconds": round(t_supervised, 4),
        "overhead_ratio": round(ratio, 4),
    }
    # merge beside the engine-suite numbers rather than clobbering them
    path = results_dir / "BENCH_experiments.json"
    merged = json.loads(path.read_text()) if path.exists() else {}
    merged["supervised_overhead"] = payload
    path.write_text(json.dumps(merged, indent=2) + "\n")
    print("\n" + json.dumps(payload, indent=2))
    assert ratio <= 1.05, payload
