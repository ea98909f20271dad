"""The register-allocation driver (Figure 2 of the paper).

``allocate()`` owns what every allocation discipline shares — cloning
and CFG normalization, the per-allocation
:class:`~repro.passes.AnalysisManager`, span-based timing,
:class:`AllocationStats` and the final verification epilogue — and
delegates the color-or-spill loop to a pluggable
:class:`~repro.regalloc.strategy.AllocatorStrategy`:

* ``allocator="iterated"`` (default) — the paper's optimistic
  Chaitin/Briggs loop, renumber → build/coalesce → costs →
  simplify/select → spill, iterating until select leaves nothing
  uncolored.  Three variants share it, differing only in renumber's
  splitting policy (:class:`~repro.remat.RenumberMode`): ``CHAITIN``
  (the paper's *Old* column), ``REMAT`` (the *New* column, tag-driven
  splitting), ``SPLIT_ALL`` (the Section 6 maximal-splitting
  extension).
* ``allocator="ssa"`` — spill everywhere under SSA form
  (Bouchez–Darte–Rastello, PAPERS.md): per-block MAXLIVE decides
  colorability, whole ranges are spilled until pressure fits the
  register file, and a greedy walk down the dominance tree colors with
  no simplify/select at all.  ``mode`` is ignored — maximal splitting
  *is* the strategy.

Per-phase wall-clock times are recorded in the same shape as the
paper's Table 2 (cfa, renum, build, costs, color, spill — per round).
Timing is span-based: every phase opens a span on a
:class:`~repro.obs.Tracer`, and the allocation's span tree
(``allocate → clone/cfa/round[i] → renumber/build/costs/color/spill``,
kept as :attr:`AllocationResult.trace`) is the only timing record —
Table 2, the engine's timing samples and the JSONL trace export all
read it.  Pass a ``Tracer(capture_events=True)`` to additionally record
the typed spill/coalesce/split/color decision events
(:mod:`repro.obs.events`); the default tracer records spans only, and
the pass-level hot paths guard event emission behind a single
``events_enabled`` attribute check.

Analyses are served by a per-allocation
:class:`~repro.passes.AnalysisManager`: dominance and loops are computed
once (the CFG shape is fixed after edge splitting) and survive every
round, renumber invalidates liveness per the pass layer's
:class:`~repro.passes.PreservedAnalyses` contract, and spill-code
insertion patches the cached liveness through its
:class:`~repro.analysis.CodeDelta` so the next round's SSA pruning
reuses it.  Coalescing *maintains* the cached liveness too (bitset
rename), and pre-split hooks share their fixed point with the first
renumber — see ``docs/architecture.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir import Function, verify_function
from ..machine import MachineDescription, standard_machine
from ..obs import Span, Tracer
from ..passes import AnalysisManager, PreservedAnalyses
from ..remat import RenumberMode
from .strategy import (AllocationContext, AllocationError, AllocationStats,
                       AllocatorStrategy, make_strategy)

#: pre-split hooks insert ``split r r`` only where ``r`` is live, which
#: leaves every block-boundary live set intact — the hook's liveness
#: fixed point stays valid for the first renumber's SSA construction
_PRE_SPLIT_PRESERVES = PreservedAnalyses.of(
    "dominance", "postdominance", "loops", "liveness")

__all__ = [
    "AllocationError", "AllocationResult", "AllocationStats", "allocate",
]


@dataclass
class AllocationResult:
    """The allocated function plus everything measured along the way."""

    function: Function
    mode: RenumberMode
    machine: MachineDescription
    stats: AllocationStats
    #: the allocation's root span (``allocate``): every phase time of
    #: the run, per round
    trace: Span
    #: the strategy that produced the coloring (the ``allocator=`` axis)
    allocator: str = "iterated"

    @property
    def rounds(self) -> int:
        return self.stats.n_rounds


def allocate(fn: Function, machine: MachineDescription | None = None,
             mode: RenumberMode = RenumberMode.REMAT,
             max_rounds: int = 50, clone: bool = True,
             biased: bool = True, lookahead: bool = True,
             coalesce_splits: bool = True, optimistic: bool = True,
             pre_split=None, tracer: Tracer | None = None,
             verify_rounds: bool = False,
             verify_incremental: bool = False,
             allocator: str = "iterated") -> AllocationResult:
    """Allocate registers for *fn*.

    Args:
        fn: input function over virtual registers.
        machine: target description (default: the paper's standard 16+16).
        mode: renumber splitting policy (Old vs New allocator); only
            consulted by the iterated strategy.
        max_rounds: bail-out bound on color/spill iterations.
        clone: work on a copy (default) or rewrite *fn* in place.
        biased: enable biased coloring (Section 4.3).
        lookahead: enable limited lookahead inside biased coloring.
        coalesce_splits: enable conservative split coalescing (Section 4.2).
        optimistic: Briggs' optimistic coloring (the default); with
            ``False`` simplify spills its candidates outright, like
            Chaitin's original allocator.
        pre_split: optional hook ``f(fn, dom, loops, am=None) -> None``
            run once before the first renumber — used by the Section 6
            loop-based splitting schemes.  It receives the round loop's
            :class:`~repro.passes.AnalysisManager` as ``am`` and shares
            its cached analyses.
        tracer: observability sink; pass
            ``Tracer(capture_events=True)`` to record decision events
            alongside the (always recorded) span tree.
        verify_rounds: run the IR verifier after every mutating phase
            (renumber, spill insertion) of every round — the allocator's
            analogue of the pipeline's ``verify_after_each``.
        verify_incremental: cross-check every patched analysis against
            a from-scratch recomputation (the liveness patched after
            each spill round vs. a fresh fixed point, the graphs patched
            between coalesce passes vs. fresh builds) and raise on any
            divergence.  Expensive; for test suites and CI.
        allocator: the allocation discipline — ``"iterated"`` (the
            paper's Chaitin/Briggs loop, the default) or ``"ssa"``
            (spill everywhere under SSA form; see
            :mod:`repro.regalloc.strategy`).

    Returns:
        an :class:`AllocationResult` whose ``function`` references only
        physical registers within the machine's files.
    """
    # validate every enum-ish argument before any mutation: under
    # ``clone=False`` a failure past this point would leave the
    # caller's function half-normalized (unreachable blocks dropped,
    # critical edges split) — the driver must reject bad arguments
    # while *fn* is still untouched
    if not isinstance(mode, RenumberMode):
        raise ValueError(f"mode must be a RenumberMode, got {mode!r}")
    strategy: AllocatorStrategy = make_strategy(allocator)
    if machine is None:
        machine = standard_machine()
    if tracer is None:
        tracer = Tracer()

    with tracer.span("allocate", fn=fn.name, mode=mode.value,
                     machine=machine.name, allocator=allocator) as root:
        with tracer.span("clone"):
            work = fn.clone() if clone else fn
        work.remove_unreachable_blocks()
        work.split_critical_edges()

        # every analysis of the allocation flows through one manager;
        # the CFG shape never changes after edge splitting, so dominance
        # and loop nesting are computed once here and preserved by every
        # round's invalidations
        am = AnalysisManager(work)
        with tracer.span("cfa"):
            dom = am.dominance()
            loops = am.loops()

        if pre_split is not None:
            pre_split(work, dom, loops, am=am)
            am.invalidate(_PRE_SPLIT_PRESERVES)
            if verify_rounds:
                verify_function(work)

        ctx = AllocationContext(
            fn=fn, work=work, machine=machine, mode=mode,
            max_rounds=max_rounds, biased=biased, lookahead=lookahead,
            coalesce_splits=coalesce_splits, optimistic=optimistic,
            verify_rounds=verify_rounds,
            verify_incremental=verify_incremental, tracer=tracer,
            am=am, dom=dom, loops=loops)
        strategy.run(ctx)
        stats = ctx.stats

        stats.n_spill_slots = work.n_spill_slots
        stats.n_analyses_computed = am.n_computed()
        stats.n_analyses_reused = am.n_reused()
        stats.n_liveness_computed = am.n_computed("liveness")
        verify_function(work, require_physical=True,
                        max_int_reg=machine.int_regs,
                        max_float_reg=machine.float_regs)

    return AllocationResult(function=work, mode=mode, machine=machine,
                            stats=stats, trace=root, allocator=allocator)
