"""The ``alloc-large`` workload: the allocator alone, on functions far
larger than the suite's.

The seed draws ``random_program`` functions of one generator shape and
keeps those inside a size band: ``BIG_COUNT`` functions of 1,500-2,500
ILOC instructions (2-4x twldrv, the largest suite kernel) for Old
(``mode=chaitin``) and New (``mode=remat``), and ``SSA_COUNT`` functions
of 700-1,300 instructions for SSA spill-everywhere (``allocator="ssa"``),
whose cost per instruction is about four times Old's.  Every allocation
targets 8 int + 8 float registers.  No engine, cache, interpreter or
process spawn is inside a timed region.

Many mid-size functions rather than a few of 5k-8k instructions: the
cost of one random function depends on how many spill rounds it needs,
so a set of four 5k-8k functions moved New's time by 15-20% from one
seed to the next, and ten of 2k-3.5k still moved SSA's by about 19%.

One pass allocates every function once under its disciplines, the
disciplines taking turns.  An untimed warm-up pass, which also checks
every allocated function against the interpreter run on the unallocated
one, comes first; timed passes follow while ``--seconds`` last.  A
discipline's end-to-end time is its pass time scaled to a nominal set
size (``NOMINAL_BIG`` / ``NOMINAL_SSA`` instructions), so that seeds
drawing slightly larger or smaller functions stay comparable.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass
from statistics import median

from common import (DISCIPLINES, PER_LAYER, BenchError, fingerprint,
                    peak_rss_mb, probe_setup, report, say)
from repro.analysis import (compute_dominance, compute_liveness,
                            compute_liveness_sparse)
from repro.benchsuite import GeneratorConfig, random_program
from repro.interp import run_function
from repro.machine import machine_with
from repro.regalloc import allocate, build_interference_graph
from repro.remat import RenumberMode, apply_plan, plan_unions, propagate_tags
from repro.ssa import SSAGraph, construct_ssa

SHAPE = GeneratorConfig(n_vars=24, max_depth=4, max_stmts=13)
BIG_BAND = (1500, 2500)
BIG_COUNT = 16
SSA_BAND = (700, 1300)
SSA_COUNT = 16
NOMINAL_BIG = 32_000
NOMINAL_SSA = 16_000
MACHINE = machine_with(8, 8)
SETUP_PROBES = 2

#: discipline -> allocate() keywords
KWARGS = {"old": {"mode": RenumberMode.CHAITIN},
          "new": {"mode": RenumberMode.REMAT},
          "ssa": {"allocator": "ssa"}}
_PHASES = ("clone", "cfa", "renumber", "build", "costs", "color", "spill")
#: per-discipline counts: metric suffix -> AllocationStats field
_COUNTS = {"rounds": "n_rounds", "spilled_ranges": "n_spilled_ranges",
           "remat_spills": "n_remat_spills",
           "splits_inserted": "n_splits_inserted",
           "copies_coalesced": "n_copies_coalesced",
           "graph_builds": "n_graph_builds",
           "graph_patches": "n_graph_patches"}
#: counts summed over every discipline: metric -> AllocationStats field
_SHARED_COUNTS = {"passes.analyses_computed": "n_analyses_computed",
                  "passes.analyses_reused": "n_analyses_reused",
                  "analysis.blocks_reanalyzed":
                      "n_incremental_blocks_reanalyzed",
                  "analysis.blocks_total": "n_incremental_blocks_total"}


@dataclass
class FunctionSet:
    big: list       #: Old and New allocate these
    small: list     #: SSA allocates these

    def jobs(self):
        """(discipline, function) in pass order: the disciplines take
        turns, so a slow stretch of the machine hits all three alike."""
        done = 0
        for i, fn in enumerate(self.big):
            yield "old", fn
            yield "new", fn
            upto = round((i + 1) * len(self.small) / len(self.big))
            for small in self.small[done:upto]:
                yield "ssa", small
            done = upto

    def size(self, discipline: str) -> int:
        fns = self.small if discipline == "ssa" else self.big
        return sum(fn.size() for fn in fns)


def _draw(rng: random.Random, band: tuple[int, int], count: int) -> list:
    functions = []
    for _ in range(5000):
        fn = random_program(rng.randrange(2 ** 31), SHAPE)
        if band[0] <= fn.size() <= band[1]:
            functions.append(fn)
            if len(functions) == count:
                return functions
    raise BenchError(f"seed drew fewer than {count} functions in {band}")


def setup(seed: int) -> FunctionSet:
    """Generate the seed's function set."""
    return FunctionSet(big=_draw(random.Random(f"big/{seed}"), BIG_BAND,
                                 BIG_COUNT),
                       small=_draw(random.Random(f"ssa/{seed}"), SSA_BAND,
                                   SSA_COUNT))


def _span_phases(root) -> dict[str, float]:
    """Seconds per allocator phase, summed over rounds, from the
    ``allocate`` span tree."""
    phases = {"clone": root.total("clone"), "cfa": root.total("cfa")}
    for phase in _PHASES[2:]:
        phases[phase] = sum(r.total(phase)
                            for r in root.children_named("round"))
    return phases


def _replay(fn, mode: RenumberMode, layers: dict[str, float]) -> None:
    """Renumber's first round through its public steps, plus the dense
    and sparse liveness and the interference build on the same code."""
    clock = time.perf_counter

    def timed(layer, func, *args, **kwargs):
        start = clock()
        out = func(*args, **kwargs)
        layers[layer] = layers.get(layer, 0.0) + clock() - start
        return out

    work = fn.clone()
    work.remove_unreachable_blocks()
    work.split_critical_edges()
    dom = compute_dominance(work)
    liveness = timed("analysis.liveness_s", compute_liveness, work)
    timed("analysis.liveness_sparse_s", compute_liveness_sparse, work)
    info = timed("ssa.construct_s", construct_ssa, work, dom=dom,
                 liveness=liveness)
    tags = None
    if mode is RenumberMode.REMAT:
        tags = timed("remat.propagate_s",
                     lambda: propagate_tags(SSAGraph.build(work, info)))
    timed("remat.split_s", lambda: apply_plan(
        work, info, plan_unions(work, info, tags, mode), tags))
    liveness = timed("analysis.liveness_s", compute_liveness, work)
    timed("analysis.liveness_sparse_s", compute_liveness_sparse, work)
    timed("regalloc.interference_s", build_interference_graph, work,
          liveness)


class _Pass:
    """Every function allocated once under its disciplines.

    With *references* (the warm-up pass) each allocated function is also
    checked against its reference.  In a traced pass each allocation
    also runs traced, right after its untraced twin, followed by the
    renumber replay.  No allocation result outlives its check, so the
    heap stays the same size from pass to pass."""

    def __init__(self, functions: FunctionSet, traced: bool,
                 references: dict | None) -> None:
        self.seconds = dict.fromkeys(DISCIPLINES, 0.0)
        self.traced_seconds = dict.fromkeys(DISCIPLINES, 0.0)
        self.stats: dict[str, dict[str, int]] = {d: {} for d in DISCIPLINES}
        self.layers: dict[str, float] = {}
        self.traced_total = 0.0
        self.checked = self.mismatches = self.steps = 0
        clock = time.perf_counter
        for discipline, fn in functions.jobs():
            start = clock()
            result = allocate(fn, machine=MACHINE, **KWARGS[discipline])
            self.seconds[discipline] += clock() - start
            sums = self.stats[discipline]
            for name, value in asdict(result.stats).items():
                sums[name] = sums.get(name, 0) + value
            if references is not None:
                out = run_function(result.function)
                self.checked += 1
                self.steps += out.steps
                self.mismatches += out.output != references[id(fn)]
            del result
            if traced:
                self._traced(discipline, fn)

    def _traced(self, discipline: str, fn) -> None:
        clock = time.perf_counter
        start = clock()
        result = allocate(fn, machine=MACHINE, **KWARGS[discipline])
        elapsed = clock() - start
        self.traced_seconds[discipline] += elapsed
        layers = self.layers
        for phase, seconds in _span_phases(result.trace).items():
            name = f"regalloc.{discipline}.{phase}_s"
            layers[name] = layers.get(name, 0.0) + seconds
        for suffix, field in _COUNTS.items():
            name = f"regalloc.{discipline}.{suffix}"
            layers[name] = layers.get(name, 0) + getattr(result.stats, field)
        for name, field in _SHARED_COUNTS.items():
            layers[name] = layers.get(name, 0) + getattr(result.stats, field)
        replay_start = clock()
        if discipline != "ssa":
            _replay(fn, KWARGS[discipline]["mode"], layers)
        self.traced_total += elapsed + clock() - replay_start


def run(functions: FunctionSet, args, setup_s: float):
    setup_samples = [setup_s]
    if not args.trace:
        setup_samples += probe_setup("alloc-large", args.seed, SETUP_PROBES)
    sizes = {"big": sorted(fn.size() for fn in functions.big),
             "ssa": sorted(fn.size() for fn in functions.small)}
    say(f"alloc-large: Old/New on {BIG_COUNT} functions of "
        f"{sizes['big']} instructions, SSA on {SSA_COUNT} of "
        f"{sizes['ssa']}; machine 8+8")
    references = {id(fn): run_function(fn).output
                  for fn in functions.big + functions.small}

    # the warm-up pass also checks every allocated function
    first = _Pass(functions, False, references)
    passes: list[_Pass] = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        passes.append(_Pass(functions, bool(args.trace), None))
        now = time.perf_counter()
        if now - start + (now - pass_start) > args.seconds:
            break

    errors = []
    attempted = first.checked * (1 + len(passes))
    failed = first.mismatches
    if failed:
        errors.append(f"{failed} allocated functions do not interpret to "
                      f"their unallocated reference")
    if any(p.stats != first.stats for p in passes):
        errors.append("allocation statistics differ between passes")

    scaled = {}
    for discipline in DISCIPLINES:
        seconds = median([p.seconds[discipline] for p in passes])
        nominal = NOMINAL_SSA if discipline == "ssa" else NOMINAL_BIG
        scaled[discipline] = (seconds * 1000.0 * nominal
                              / functions.size(discipline))
        report(f"{discipline}_s", seconds, "s")
        report(f"{discipline}_ms_per_{nominal:,}_inst",
               scaled[discipline], "ms")
    say(f"  passes: {len(passes)}, function sizes: {sizes}")
    report("setup_s", median(setup_samples), "s")
    report("peak_rss_mb", peak_rss_mb(), "MB")
    fingerprint({"sizes": sizes, "interp.steps": first.steps,
                 "alloc": first.stats})
    for error in errors:
        say(f"  CHECK FAILED: {error}")

    values = {"setup_s": median(setup_samples),
              "peak_rss_mb": peak_rss_mb(),
              "t1cold.new.miss_ms": scaled["new"],
              "t2.old.hit_ms": scaled["old"],
              "t1warm.ssa.all_ms": scaled["ssa"]}
    if args.trace:
        values = _traced_values(passes)
    return not errors and not failed, attempted, failed, values


def _traced_values(passes: list[_Pass]) -> dict[str, float]:
    """Per-layer means over the passes; the times add up to the traced
    pass time, the remainder printed as its own line."""
    names = sorted({name for p in passes for name in p.layers})
    layers = {name: sum(p.layers.get(name, 0.0) for p in passes)
              / len(passes) for name in names}
    traced_s = sum(p.traced_total for p in passes) / len(passes)
    timed = sum(v for k, v in layers.items() if k.endswith("_s"))
    layers["alloc.traced_s"] = traced_s
    layers["alloc.unattributed_s"] = traced_s - timed
    plain = sum(sum(p.seconds.values()) for p in passes)
    traced = sum(sum(p.traced_seconds.values()) for p in passes)
    layers["obs.overhead_pct"] = (traced / plain - 1.0) * 100.0
    say("alloc-large per-layer (mean per traced pass):")
    for name in sorted(layers):
        report(name, layers[name], PER_LAYER[name])
    return layers
