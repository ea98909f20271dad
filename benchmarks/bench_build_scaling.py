"""Build/liveness scaling: incremental maintenance vs. from-scratch.

Two races on generated functions of growing size (now up to ~80k
instructions), each written as one row of the scaling curve in
``results/BENCH_build.json``:

1. **Build race** (the original bench): ``compute_liveness`` +
   ``build_interference_graph`` against the seed set-based oracles in
   ``tests/reference_impl.py``.  The seed build is quadratic-ish, so
   this race only runs at the points where it finishes in reasonable
   time; the bitset build is timed everywhere.
2. **Spill-patch liveness race**: real allocation rounds are run to
   produce a genuine spill delta, then ``LivenessInfo.apply_delta`` —
   what the allocator's analysis manager does after every spill round
   — races a full ``compute_liveness`` over the post-spill code.  The
   patched liveness is diffed against the fresh one, so the race is
   honest by construction.  The delta raced is the *steady-state* one
   — the deepest spilling round up to ``PATCH_ROUND`` — because round 1
   at bench register pressure spills a near-global fraction of the
   ranges (87% of the blocks dirty at the largest point), which no
   patch scheme should be expected to beat by 2x; rounds 2+ are what
   the allocator's inner loop actually replays.  The CI gate lives
   here: at the largest point the raced round must be >= 2 and the
   patch must cost <= 0.5x the from-scratch fixed point.
"""

from __future__ import annotations

import json
import time

from repro.analysis import compute_liveness, diff_liveness
from repro.benchsuite import GeneratorConfig, KERNELS_BY_NAME, random_program
from repro.machine import machine_with
from repro.passes import AnalysisManager
from repro.regalloc import build_interference_graph, run_renumber
from repro.regalloc.coalesce import build_coalesce_loop
from repro.regalloc.select import find_partners, select
from repro.regalloc.simplify import simplify
from repro.regalloc.spillcode import insert_spill_code
from repro.regalloc.spillcost import compute_spill_costs
from repro.remat import RenumberMode

from tests.reference_impl import (ref_build_interference_graph,
                                  ref_compute_liveness)

from .conftest import save_result

#: growing shapes: (label, generator config); sizes roughly double
SCALES = [
    ("gen-s", GeneratorConfig(n_vars=6, max_depth=2, max_stmts=5)),
    ("gen-m", GeneratorConfig(n_vars=10, max_depth=3, max_stmts=8)),
    ("gen-l", GeneratorConfig(n_vars=16, max_depth=4, max_stmts=10)),
    ("gen-xl", GeneratorConfig(n_vars=24, max_depth=4, max_stmts=16)),
    ("gen-2xl", GeneratorConfig(n_vars=28, max_depth=4, max_stmts=22)),
    ("gen-3xl", GeneratorConfig(n_vars=32, max_depth=4, max_stmts=24)),
    ("gen-4xl", GeneratorConfig(n_vars=30, max_depth=4, max_stmts=26)),
]
SEED = 7
REPEATS = 5
#: the seed set-based build is quadratic-ish; race it only where it
#: finishes in seconds (the bitset arm is timed at every point)
SEED_RACE_MAX_INSTS = 10_000
#: deepest round whose spill delta the patch race captures: round 1 at
#: bench pressure dirties ~87% of the blocks (near-global), rounds 2-3
#: are the steady-state deltas the allocator's inner loop replays
PATCH_ROUND = 3
BENCH_MACHINE = machine_with(10, 10)


def _post_renumber(fn):
    """The allocator builds on post-renumber code; match that shape."""
    fn.remove_unreachable_blocks()
    fn.split_critical_edges()
    run_renumber(fn, RenumberMode.REMAT)
    return fn


def _specimens():
    for label, config in SCALES:
        yield label, _post_renumber(random_program(SEED, config))
    yield "twldrv", _post_renumber(KERNELS_BY_NAME["twldrv"].compile())


def _time(job, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        job()
        best = min(best, time.perf_counter() - t0)
    return best


def _time_with_setup(setup, job, repeats: int = REPEATS) -> float:
    """Best-of-N where each iteration gets fresh state from *setup*
    (for destructive jobs); only *job* is inside the timed region."""
    best = float("inf")
    for _ in range(repeats):
        state = setup()
        t0 = time.perf_counter()
        job(state)
        best = min(best, time.perf_counter() - t0)
    return best


def _bitset_build(fn):
    liveness = compute_liveness(fn)
    return build_interference_graph(fn, liveness)


def _seed_build(fn):
    ref_compute_liveness(fn)                 # seed build recomputed its own
    return ref_build_interference_graph(fn)  # liveness internally, so both


def _spill_rounds(fn, machine, rounds=1):
    """Advance *fn* in place through up to *rounds* real allocation
    rounds (renumber, build-coalesce, color, spill insertion each) and
    capture the deepest round that spilled: its pre-spill liveness, its
    spill delta, and its round number — or ``None`` if round 1 already
    colors.  *fn* is left exactly as the captured round's spill
    insertion left it, so the caller can race the delta patch against a
    from-scratch fixed point over that code."""
    captured = None
    for round_no in range(1, rounds + 1):
        if round_no > 1:
            run_renumber(fn, RenumberMode.REMAT)
        am = AnalysisManager(fn)
        liveness = am.liveness()
        loops = am.loops()
        graph, _ = build_coalesce_loop(fn, machine,
                                       build_interference_graph,
                                       liveness=liveness)
        costs = compute_spill_costs(fn, loops, machine)
        order = simplify(graph, machine, costs)
        chosen = select(graph, order, machine, partners=find_partners(fn))
        chosen.spilled.extend(order.pessimistic_spills)
        if not chosen.spilled:
            break
        pristine = liveness.clone()
        spill_stats = insert_spill_code(fn, chosen.spilled, costs)
        captured = (pristine, spill_stats.delta, round_no)
    return captured


def _patch_race(fn, pristine, delta, patch_round):
    """Race the spill-delta liveness patch against a from-scratch fixed
    point over the post-spill code; diff both results so the race is
    honest."""
    patched = pristine.clone()
    update_stats = patched.apply_delta(delta)
    problems = diff_liveness(patched, compute_liveness(fn))
    assert not problems, problems[:5]
    # the acceptance reconciliation: every incremental update touches a
    # strict subset of the blocks
    assert update_stats.blocks_reanalyzed < update_stats.blocks_total

    t_update = _time_with_setup(pristine.clone,
                                lambda lv: lv.apply_delta(delta))
    t_full = _time(lambda: compute_liveness(fn))
    return {
        "patch_round": patch_round,
        "liveness_update_seconds": round(t_update, 6),
        "liveness_full_seconds": round(t_full, 6),
        "patch_speedup": round(t_full / t_update, 2),
        "blocks_reanalyzed": update_stats.blocks_reanalyzed,
        "blocks_total": update_stats.blocks_total,
    }


def test_build_scaling(results_dir):
    rows = []
    for label, fn in _specimens():
        row = {
            "name": label,
            "n_insts": fn.size(),
            "n_blocks": len(fn.blocks),
            "n_regs": len(fn.all_regs()),
        }
        graph = _bitset_build(fn)
        row["n_edges"] = graph.n_edges()
        row["bitset_seconds"] = round(_time(lambda: _bitset_build(fn)), 6)
        if fn.size() <= SEED_RACE_MAX_INSTS:
            ref = ref_build_interference_graph(fn)
            assert graph.n_edges() == ref.n_edges()  # same graph, honest race
            row["seed_seconds"] = round(_time(lambda: _seed_build(fn)), 6)
            row["speedup"] = round(row["seed_seconds"]
                                   / row["bitset_seconds"], 2)
        else:
            row["seed_seconds"] = None
            row["speedup"] = None

        fixture = _spill_rounds(fn, BENCH_MACHINE, rounds=PATCH_ROUND)
        if fixture is not None:
            row.update(_patch_race(fn, *fixture))
        else:
            row["patch_speedup"] = None
        rows.append(row)

    header = (f"{'function':>10} {'insts':>6} {'blocks':>6} {'edges':>8} "
              f"{'build(s)':>9} {'rd':>3} {'live full':>10} "
              f"{'live patch':>10} {'patch x':>8}")
    lines = [header, "-" * len(header)]
    for r in rows:
        def cell(key, width, fmt="{:.4f}"):
            v = r.get(key)
            return ("-" if v is None else fmt.format(v)).rjust(width)
        lines.append(
            f"{r['name']:>10} {r['n_insts']:>6} {r['n_blocks']:>6} "
            f"{r['n_edges']:>8}"
            + cell("bitset_seconds", 10)
            + cell("patch_round", 4, "{:d}")
            + cell("liveness_full_seconds", 11)
            + cell("liveness_update_seconds", 11)
            + cell("patch_speedup", 9, "{:.1f}x"))
    save_result(results_dir, "bench_build_scaling", "\n".join(lines))

    largest = max(rows, key=lambda r: r["n_insts"])
    payload = {
        "benchmark": "build_scaling",
        "unit": "seconds (best of %d)" % REPEATS,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "machine": {"int_regs": BENCH_MACHINE.int_regs,
                    "float_regs": BENCH_MACHINE.float_regs},
        "arms": {
            "seed": "seed set-based liveness + build (reference_impl)",
            "bitset": "dense-bitset liveness + build, from scratch",
            "liveness_full": "compute_liveness over the post-spill code "
                             "of the captured round (patch_round)",
            "liveness_update": "apply_delta liveness patch for the same "
                               "round's spill delta",
        },
        "rows": rows,
        "largest": largest["name"],
        "largest_patch_round": largest.get("patch_round"),
        "largest_patch_speedup": largest.get("patch_speedup"),
    }
    (results_dir / "BENCH_build.json").write_text(
        json.dumps(payload, indent=2) + "\n")

    # original acceptance: >= 2x over the seed build on the largest
    # seed-raced generated function
    largest_gen = max((r for r in rows if r["name"].startswith("gen")
                       and r.get("speedup") is not None),
                      key=lambda r: r["n_insts"])
    assert largest_gen["speedup"] >= 2.0, largest_gen

    # CI gate: at the largest bench point the liveness patch of a
    # round-2+ spill delta must cost <= 0.5x the from-scratch fixed point
    assert largest.get("patch_speedup") is not None, largest
    assert largest["patch_round"] >= 2, largest
    assert (largest["liveness_update_seconds"]
            <= 0.5 * largest["liveness_full_seconds"]), largest
