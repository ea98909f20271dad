"""Coalescing: aggressive for ordinary copies, conservative for splits
(Sections 2 and 4.2).

Chaitin's coalesce combines live ranges ``l_i`` and ``l_j`` when ``l_j`` is
defined by a copy from ``l_i`` and they do not otherwise interfere.  To
keep the splits renumber so carefully introduced, split instructions are
only *conservatively* coalesced: the combined live range must have fewer
than k neighbors of *significant degree* (degree >= k), which guarantees it
still simplifies and therefore can never spill.

The driver follows the paper's schedule: first coalesce all ordinary
copies to a fixed point (rebuilding the graph between rounds), then begin
conservatively coalescing split instructions, again to a fixed point.
Each rebuild reuses the round's liveness fixed point: coalescing only
merges names, so the cached bitsets are *renamed* through the shared
:class:`~repro.analysis.RegIndex` instead of re-running the data-flow
iteration (see :meth:`~repro.analysis.LivenessInfo.rename`), plus a
small exact patch for the deleted copies themselves (a deleted copy's
renamed use/def bits would otherwise linger in its block's summaries,
leaving the cached fixed point conservative — and the next round's
incremental update would then disagree with a from-scratch compute).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis import CodeDelta, LivenessInfo, compute_liveness, iter_bits
from ..ir import Function, Reg
from ..machine import MachineDescription
from ..obs import CoalesceDecision, NULL_TRACER
from ..unionfind import DisjointSets
from .interference import InterferenceGraph, diff_graphs


@dataclass
class CoalesceStats:
    """How many copies each stage removed, how often the round's
    liveness was reused across graph rebuilds, and how many of those
    rebuilds were incremental patches instead of from-scratch scans."""

    copies_removed: int = 0
    splits_removed: int = 0
    liveness_cache_hits: int = 0
    liveness_cache_misses: int = 0
    #: from-scratch interference builds (the first one plus any
    #: fallback where a pass merged too much to patch profitably)
    graph_builds: int = 0
    #: rebuilds served by :meth:`InterferenceGraph.try_refresh_after_coalesce`
    graph_patches: int = 0
    #: blocks rescanned across all patches (vs. blocks × rebuilds for
    #: the from-scratch strategy)
    graph_blocks_rescanned: int = 0
    #: adjacency bits re-derived across all patches
    graph_edges_patched: int = 0


def _significant_neighbors(graph: InterferenceGraph, a: Reg, b: Reg,
                           k: int) -> int:
    """Significant-degree neighbors of the would-be merged node.

    Briggs' conservative criterion holds when the result is < k; the
    count stops early at k (so a returned k means "at least k").
    """
    index = graph.index
    combined = graph.neighbor_bits(a) | graph.neighbor_bits(b)
    significant = 0
    for i in iter_bits(combined):
        if graph.degree(index.reg(i)) >= k:
            significant += 1
            if significant >= k:
                break
    return significant


def coalesce_pass(fn: Function, graph: InterferenceGraph,
                  machine: MachineDescription,
                  splits: bool,
                  no_spill: set[Reg] | None = None,
                  liveness: LivenessInfo | None = None,
                  tracer=NULL_TRACER,
                  dirty_out: set[Reg] | None = None) -> int:
    """One pass over the code, combining what the stage allows.

    With ``splits=False`` only ordinary copies are (aggressively)
    coalesced; with ``splits=True`` only split instructions are, under the
    conservative criterion.  The graph is updated in place by node merging
    and the code rewritten, so several combines can happen per pass.
    When a cached *liveness* is supplied its bitsets are renamed through
    the same mapping applied to the code and patched exact over the
    deleted-copy sites, keeping it equal to a from-scratch recompute for
    the next graph rebuild.  A *dirty_out* set collects every register involved
    in a combine (survivors and merged-away names) — the seed for an
    incremental graph refresh.  Returns the number of instructions
    removed.

    When the tracer captures events every considered pair emits a
    :class:`~repro.obs.CoalesceDecision` recording acceptance, the
    rejection reason, and (for splits) the Briggs significant-neighbor
    degree the conservative test saw.
    """
    ds = DisjointSets()
    removed_ids: set[int] = set()
    merged = 0
    events = tracer.events_enabled
    kind = "split" if splits else "copy"

    def decide(dest: Reg, src: Reg, accepted: bool, reason: str,
               briggs: int | None = None) -> None:
        tracer.event(CoalesceDecision(
            dest=str(dest), src=str(src), copy_kind=kind,
            accepted=accepted, briggs_degree=briggs, reason=reason))

    for blk in fn.blocks:
        for inst in blk.instructions:
            if not inst.is_copy or inst.is_split is not splits:
                continue
            dest = ds.find(inst.dest)
            src = ds.find(inst.src)
            if dest == src:
                removed_ids.add(id(inst))
                merged += 1
                if dirty_out is not None:
                    dirty_out.add(inst.dest)
                    dirty_out.add(inst.src)
                if events:
                    decide(inst.dest, inst.src, True, "already-unioned")
                continue
            if dest not in graph or src not in graph:
                if events:
                    decide(dest, src, False, "not-in-graph")
                continue
            if graph.interferes(dest, src):
                if events:
                    decide(dest, src, False, "interferes")
                continue
            if splits:
                briggs = _significant_neighbors(graph, dest, src,
                                                machine.k(dest.rclass))
                if briggs >= machine.k(dest.rclass):
                    if events:
                        decide(dest, src, False, "conservative-failed",
                               briggs)
                    continue
            else:
                briggs = None
            if events:
                decide(dest, src, True, "merged", briggs)
            keep = ds.union(dest, src)
            gone = src if keep == dest else dest
            graph.merge(keep, gone)
            if dirty_out is not None:
                dirty_out.add(keep)
                dirty_out.add(gone)
            if no_spill is not None and gone in no_spill:
                no_spill.discard(gone)
                no_spill.add(keep)
            removed_ids.add(id(inst))
            merged += 1

    if merged:
        # every register the pass touched is already in the union-find;
        # walking it directly beats re-collecting fn.all_regs() (an
        # O(program) instruction sweep) just to filter it back down
        rename = {reg: ds.find(reg) for reg in ds}
        deleted_blocks: set[str] = set()
        deleted_regs: set[Reg] = set()
        for blk in fn.blocks:
            new_instructions = []
            for inst in blk.instructions:
                if id(inst) in removed_ids:
                    deleted_blocks.add(blk.label)
                    deleted_regs.add(ds.find(inst.dest))
                    continue
                inst.rewrite_regs(rename)
                if inst.is_copy and inst.dest == inst.src:
                    # became an identity copy through renaming
                    deleted_blocks.add(blk.label)
                    deleted_regs.add(inst.dest)
                    continue
                new_instructions.append(inst)
            blk.instructions = new_instructions
        if liveness is not None:
            liveness.rename(rename)
            if deleted_blocks:
                # rename() alone leaves the deleted copies' use/def bits
                # behind (the copy's occurrence of both names is gone from
                # the code but its renamed bit survives in the block
                # summaries), so the cached fixed point would drift
                # conservative.  Patch it exact: the deleted sites are the
                # dirty blocks and the representatives are the touched
                # registers whose ranges may have shrunk.
                liveness.apply_delta(CodeDelta.of(
                    dirty_blocks=deleted_blocks,
                    touched_regs=deleted_regs))
    return merged


def build_coalesce_loop(fn: Function, machine: MachineDescription,
                        build_graph, no_spill: set[Reg] | None = None,
                        coalesce_splits: bool = True,
                        liveness: LivenessInfo | None = None,
                        tracer=NULL_TRACER,
                        verify_incremental: bool = False,
                        ) -> tuple[InterferenceGraph, CoalesceStats]:
    """The paper's build–coalesce loop.

    *build_graph* is called to (re)construct the interference graph; the
    loop alternates building and coalescing until no combine fires, first
    for ordinary copies, then (if *coalesce_splits*) conservatively for
    splits.  One liveness fixed point serves the whole loop: the caller's
    cached *liveness* when given, else one computed here up front — never
    one per rebuild — and every rebuild after the first is a cache hit
    because coalescing renames the bitsets in place.

    Rebuilds after a pass are served by
    :meth:`InterferenceGraph.try_refresh_after_coalesce` — an edge patch
    over the merge-dirty rows — falling back to a from-scratch scan when
    a pass merged more than patching profits from (typically the first,
    aggressive pass).  *verify_incremental* cross-checks every patch
    against a from-scratch build and raises on any mismatch (rows or
    node order).  Returns the final graph and the statistics.
    """
    stats = CoalesceStats()
    if liveness is None:
        liveness = compute_liveness(fn)

    def fresh_build() -> InterferenceGraph:
        stats.graph_builds += 1
        return build_graph(fn, liveness)

    def rebuild(graph: InterferenceGraph,
                dirty: set[Reg]) -> InterferenceGraph:
        stats.liveness_cache_hits += 1
        patch = graph.try_refresh_after_coalesce(fn, liveness, dirty)
        if patch is None:
            return fresh_build()
        stats.graph_patches += 1
        stats.graph_blocks_rescanned += patch.blocks_rescanned
        stats.graph_edges_patched += patch.edges_patched
        if verify_incremental:
            problems = diff_graphs(graph, fresh_build())
            if problems:
                raise RuntimeError(
                    "incremental interference refresh diverged from "
                    f"from-scratch build on {fn.name}: "
                    + "; ".join(problems[:5]))
        return graph

    stats.liveness_cache_misses += 1
    graph = fresh_build()
    while True:
        dirty: set[Reg] = set()
        n = coalesce_pass(fn, graph, machine, splits=False,
                          no_spill=no_spill, liveness=liveness,
                          tracer=tracer, dirty_out=dirty)
        stats.copies_removed += n
        if n == 0:
            break
        graph = rebuild(graph, dirty)
    if coalesce_splits:
        while True:
            dirty = set()
            n = coalesce_pass(fn, graph, machine, splits=True,
                              no_spill=no_spill, liveness=liveness,
                              tracer=tracer, dirty_out=dirty)
            stats.splits_removed += n
            if n == 0:
                break
            graph = rebuild(graph, dirty)
    return graph, stats
