"""The ``tables`` workload: the paper's own path through the experiment
engine.

One iteration regenerates, each on a fresh ``ExperimentEngine(jobs=1)``:

* Table 1 cold, over an empty cache directory (48 kernels x huge-machine
  baseline, Old and New: 144 requests, all executed and cached);
* Table 2 (repvid, tomcatv, twldrv under Old and New, 5 repeats; its
  requests are never cached);
* Table 1 warm, ``WARM_PER_ITERATION`` times, each on a fresh engine over
  the cache the cold run filled (144 disk hits, no allocation at all).

Every regeneration includes rendering the table text.  ``jobs=1`` keeps
process spawning out of every timed region.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import asdict
from statistics import median

from common import (PER_LAYER, Probe, fingerprint, fresh_dir, peak_rss_mb,
                    probe_setup, report, say, tail)
from repro.benchsuite import ALL_KERNELS
from repro.engine import ExperimentEngine, ExperimentFailure
from repro.engine import cache as cache_mod
from repro.engine import engine as engine_mod
from repro.engine import executor
from repro.experiments import table1 as table1_mod
from repro.experiments import table2 as table2_mod
from repro.frontend import compile_source
from repro.interp import run_function
from repro.machine import standard_machine

WARM_PER_ITERATION = 5
T2_REPEATS = 5
MIN_ITERATIONS = 3
SETUP_PROBES = 4

#: (owner, attribute, layer) rebound by the traced iterations
_PROBED = (
    (engine_mod, "request_key", "engine.key_ms"),
    (cache_mod.ResultCache, "get", "engine.cache_get_ms"),
    (cache_mod.ResultCache, "put", "engine.cache_put_ms"),
    (executor, "parse_function", "ir.parse_ms"),
    (executor, "run_function", "interp.run_ms"),
    (table1_mod, "comparison_requests", "experiments.requests_ms"),
    (table2_mod.TimingColumn, "timing_request", "experiments.requests_ms"),
    (table1_mod, "comparison_from_summaries", "experiments.assemble_ms"),
    (table2_mod.TimingColumn, "from_summary", "experiments.assemble_ms"),
    (table1_mod.Table1, "render", "experiments.render_ms"),
    (table2_mod.Table2, "render", "experiments.render_ms"),
)


def setup(seed: int) -> None:
    """Compile the 48 suite kernels (the harnesses reuse the result).

    The workload's inputs are the paper's kernels, so *seed* selects
    nothing here."""
    for kernel in ALL_KERNELS:
        kernel.compile()


def _compile_ms() -> float:
    start = time.perf_counter()
    for kernel in ALL_KERNELS:
        compile_source(kernel.source)
    return (time.perf_counter() - start) * 1000.0


class _Iteration:
    """One cold Table 1, one Table 2 and the warm Table 1 regenerations."""

    def __init__(self, references: dict, probe: Probe | None) -> None:
        self.errors: list[str] = []
        self.layers: dict[str, float] = {}
        cache_dir = fresh_dir("tables-cache")
        if probe is not None:
            for owner, name, layer in _PROBED:
                probe.wrap(owner, name, layer)
        try:
            start = time.perf_counter()
            cold_engine = ExperimentEngine(jobs=1, cache_dir=cache_dir)
            table = table1_mod.generate_table1(engine=cold_engine)
            self.text = table.render()
            self.cold_s = time.perf_counter() - start

            start = time.perf_counter()
            t2 = table2_mod.generate_table2(
                repeats=T2_REPEATS,
                engine=ExperimentEngine(jobs=1, cache_dir=cache_dir))
            t2.render()
            self.t2_s = time.perf_counter() - start

            self.warm_s = []
            warm = []
            for _ in range(WARM_PER_ITERATION):
                start = time.perf_counter()
                engine = ExperimentEngine(jobs=1, cache_dir=cache_dir)
                table_w = table1_mod.generate_table1(engine=engine)
                text = table_w.render()
                self.warm_s.append(time.perf_counter() - start)
                warm.append((engine, table_w, text))
        finally:
            if probe is not None:
                probe.restore()
        self.total_s = self.cold_s + self.t2_s + sum(self.warm_s)
        # 144 requests per Table 1 regeneration, 6 per Table 2
        self.attempted = 3 * len(ALL_KERNELS) * (1 + len(warm)) + 6
        self.failed = (len(table.failures) + len(t2.failures)
                       + sum(len(t.failures) for _, t, _ in warm))
        if any(text != self.text for _, _, text in warm):
            self.errors.append("warm Table 1 text differs from cold")
        self._check(cold_engine, references, t2, [e for e, _, _ in warm])
        if probe is not None:
            self.layers = {name: seconds * 1000.0
                           for name, seconds in probe.take().items()}
            self._regalloc_layers(t2)
        del self.unique  # keep the heap the same size across iterations

    def _check(self, engine, references, t2, warm_engines) -> None:
        """Outputs against the unallocated references, plus the work
        fingerprint of this iteration (outside every timed region)."""
        requests = [request for kernel in ALL_KERNELS
                    for request in table1_mod.comparison_requests(
                        kernel, standard_machine())]
        stats = engine.stats
        counts = {"cold.executed": stats.executed,
                  "cold.memo_hits": stats.memo_hits,
                  "cold.cache_hits": stats.cache_hits,
                  "cold.deduplicated": stats.deduplicated,
                  "warm.cache_hits": sum(e.stats.cache_hits
                                         for e in warm_engines),
                  "warm.executed": sum(e.stats.executed
                                       for e in warm_engines)}
        self.unique: dict[str, object] = {}
        summaries = engine.run_many(requests)
        for i, summary in enumerate(summaries):
            kernel = ALL_KERNELS[i // 3]
            if isinstance(summary, ExperimentFailure):
                continue  # already counted as a quarantined request
            if summary.output != references[kernel.name]:
                self.errors.append(f"{kernel.name}: output differs from "
                                   f"the unallocated reference")
            self.unique[summary.key] = summary
        stat_sums: dict[str, int] = {}
        steps = 0
        for summary in self.unique.values():
            steps += summary.steps or 0
            for name, value in asdict(summary.stats).items():
                stat_sums[name] = stat_sums.get(name, 0) + value
        counts["interp.steps"] = steps
        counts["alloc"] = stat_sums
        counts["table2"] = [[old.routine, len(old.rounds), len(new.rounds),
                             old.code_size]
                            for old, new in t2.columns]
        counts["table1_sha256"] = hashlib.sha256(
            self.text.encode()).hexdigest()[:16]
        self.counts = counts
        self.steps = steps

    def _regalloc_layers(self, t2) -> None:
        """Allocator phases from the summaries' live timing samples
        (cold Table 1) and Table 2's columns, which average
        ``T2_REPEATS`` runs."""
        phases = {"cfa": 0.0, "renumber": 0.0, "build": 0.0, "costs": 0.0,
                  "color": 0.0, "spill": 0.0, "other": 0.0}

        def add(cfa, total, rounds, weight):
            inner = cfa
            phases["cfa"] += cfa * weight
            for row in rounds:
                for phase, key in (("renumber", "renum"), ("build", "build"),
                                   ("costs", "costs"), ("color", "color"),
                                   ("spill", "spill")):
                    phases[phase] += row[key] * weight
                    inner += row[key]
            phases["other"] += (total - inner) * weight

        for summary in self.unique.values():
            for sample in summary.timing.samples:
                add(sample.cfa, sample.total, sample.rounds, 1)
        for pair in t2.columns:
            for column in pair:
                add(column.cfa, column.total, column.rounds, T2_REPEATS)
        for phase, seconds in phases.items():
            self.layers[f"regalloc.{phase}_ms"] = seconds * 1000.0
        self.layers["interp.steps"] = float(self.steps)


def run(state, args, setup_s: float) -> tuple[bool, int, int, dict]:
    setup_samples = [setup_s]
    if not args.trace:
        setup_samples += probe_setup("tables", args.seed, SETUP_PROBES)
    references = {k.name: tuple(run_function(k.compile(),
                                             args=list(k.args)).output)
                  for k in ALL_KERNELS}

    warmup = _Iteration(references, None)
    plain: list[_Iteration] = []
    traced: list[_Iteration] = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        plain.append(_Iteration(references, None))
        if args.trace:
            traced.append(_Iteration(references, Probe()))
        now = time.perf_counter()
        if len(plain) >= MIN_ITERATIONS \
                and now - start + (now - round_start) > args.seconds:
            break

    runs = [warmup] + plain + traced
    errors = sorted({e for it in runs for e in it.errors})
    fingerprints = {repr(it.counts) for it in runs}
    if len(fingerprints) != 1:
        errors.append("work fingerprint differs between iterations")
    if len({it.text for it in runs}) != 1:
        errors.append("Table 1 text differs between iterations")
    attempted = sum(it.attempted for it in plain + traced)
    failed = sum(it.failed for it in plain + traced)
    failed += sum(len(it.errors) for it in plain + traced)

    cold = [it.cold_s for it in plain]
    t2 = [it.t2_s for it in plain]
    warm = [s for it in plain for s in it.warm_s]
    say(f"tables: {len(plain)} untraced + {len(traced)} traced iterations "
        f"(+1 warm-up), {WARM_PER_ITERATION} warm regenerations each")
    report("table1_cold_s", median(cold), "s")
    report("table2_s", median(t2), "s")
    report("table1_warm_ms", median(warm) * 1000.0, "ms")
    warm_tail = tail(warm)
    if warm_tail is not None:
        say(f"  table1_warm_ms tail p{warm_tail[0]:.1f} = "
            f"{warm_tail[1] * 1000.0:.4f} ms (n={warm_tail[2]})")
    report("setup_s", median(setup_samples), "s")
    report("peak_rss_mb", peak_rss_mb(), "MB")
    fingerprint(runs[0].counts)
    for error in errors:
        say(f"  CHECK FAILED: {error}")

    values = {
        "setup_s": median(setup_samples),
        "peak_rss_mb": peak_rss_mb(),
        "t1cold.new.miss_ms": median(cold) * 1000.0,
        "t2.old.hit_ms": median(t2) * 1000.0,
        "t1warm.ssa.all_ms": median(warm) * 1000.0,
    }
    if args.trace:
        values = _traced_values(plain, traced)
    return not errors and not failed, attempted, failed, values


def _traced_values(plain, traced) -> dict[str, float]:
    """Per-layer means over the traced iterations; they add up to the
    traced iteration time, the remainder printed as its own line."""
    names = sorted({name for it in traced for name in it.layers})
    layers = {name: sum(it.layers.get(name, 0.0) for it in traced)
              / len(traced) for name in names}
    traced_ms = sum(it.total_s for it in traced) / len(traced) * 1000.0
    timed = sum(v for k, v in layers.items() if k.endswith("_ms"))
    layers["tables.traced_ms"] = traced_ms
    layers["tables.unattributed_ms"] = traced_ms - timed
    layers["frontend.compile_ms"] = median([_compile_ms() for _ in range(3)])
    untraced = median([it.total_s for it in plain])
    layers["obs.overhead_pct"] = (median([it.total_s for it in traced])
                                  / untraced - 1.0) * 100.0
    say("tables per-layer (mean per traced iteration):")
    for name in sorted(layers):
        report(name, layers[name], PER_LAYER[name])
    return layers
