"""The interference graph (Section 2, *Build*).

Chaitin advocated a dual representation: a triangular bit matrix for O(1)
membership tests plus adjacency vectors for fast neighbor iteration.  In
Python the two collapse into one structure that serves both roles: an
int-bitset adjacency *row* per node over a dense
:class:`~repro.analysis.RegIndex`.  Membership is one shift-and-mask,
degree is ``bit_count()``, and adding a whole live set as neighbors of a
definition is a single big-int OR — which is what makes Build fast here
(the seed implementation inserted every edge into a ``set`` of
canonicalized ``Reg`` pairs, one hash and one ``sort_key`` call at a
time).  A single representation also removes the seed's dual-bookkeeping
hazard where the pair-set and the adjacency dict could drift apart under
``merge``.

Integer and float live ranges never interfere — they are colored from
disjoint register files — so cross-class edges are rejected (by masking
with the per-class universe).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis import LivenessInfo, RegIndex, compute_liveness, iter_bits
from ..ir import Function, Reg


@dataclass
class GraphPatchStats:
    """What one incremental graph refresh did (vs. a full rebuild)."""

    #: blocks whose edge-insertion scan was re-run
    blocks_rescanned: int = 0
    #: adjacency bits re-derived (edge endpoints on refreshed rows)
    edges_patched: int = 0


class InterferenceGraph:
    """An undirected graph over live-range registers.

    Nodes are registers; adjacency is one bitset row per node, indexed by
    a shared :class:`RegIndex`.  The row view *is* the bit matrix: the
    edge (a, b) exists iff bit ``id(b)`` of ``row(a)`` is set, and rows
    are kept symmetric by construction.
    """

    def __init__(self, nodes: list[Reg] | None = None,
                 index: RegIndex | None = None) -> None:
        self._index = index if index is not None else RegIndex()
        #: dense id -> adjacency bitset; presence of the key = node exists
        self._rows: dict[int, int] = {}
        #: dense id -> Reg for present nodes, in insertion order (nodes()
        #: must be deterministic and match the seed's ordering)
        self._node_regs: dict[int, Reg] = {}
        for node in nodes or ():
            self.add_node(node)

    # -- construction ---------------------------------------------------------

    @property
    def index(self) -> RegIndex:
        return self._index

    def add_node(self, reg: Reg) -> None:
        i = self._index.ensure(reg)
        if i not in self._rows:
            self._rows[i] = 0
            self._node_regs[i] = reg

    def add_edge(self, a: Reg, b: Reg) -> None:
        """Record that *a* and *b* interfere.  Self and cross-class pairs
        are ignored."""
        if a == b or a.rclass is not b.rclass:
            return
        self.add_node(a)
        self.add_node(b)
        ia = self._index.id(a)
        ib = self._index.id(b)
        self._rows[ia] |= 1 << ib
        self._rows[ib] |= 1 << ia

    def add_def_edges(self, d: Reg, live_bits: int) -> None:
        """Make *d* interfere with every node of *live_bits* at once.

        *live_bits* may span both classes and include *d* itself; the
        cross-class and self bits are masked away.  Reverse rows are
        updated only for bits that are actually new — re-adding the edges
        of a busy loop costs one OR, not one hash probe per neighbor.
        """
        rows = self._rows
        i = self._index.ensure(d)
        row = rows.get(i)
        if row is None:
            self.add_node(d)
            row = 0
        mask = (live_bits & self._index.class_mask(d.rclass)) & ~(1 << i)
        new = mask & ~row
        if not new:
            return
        rows[i] = row | mask
        bit = 1 << i
        for j in iter_bits(new):
            rows[j] |= bit

    # -- queries ---------------------------------------------------------------

    def nodes(self) -> list[Reg]:
        return list(self._node_regs.values())

    def __contains__(self, reg: Reg) -> bool:
        i = self._index.get(reg)
        return i is not None and i in self._rows

    def interferes(self, a: Reg, b: Reg) -> bool:
        ia = self._index.get(a)
        ib = self._index.get(b)
        if ia is None or ib is None:
            return False
        row = self._rows.get(ia)
        return row is not None and bool(row >> ib & 1)

    def neighbors(self, reg: Reg) -> set[Reg]:
        return self._index.to_set(self._rows[self._index.id(reg)])

    def neighbor_bits(self, reg: Reg) -> int:
        """The adjacency row of *reg* as a bitset (the fast path)."""
        return self._rows[self._index.id(reg)]

    def degree(self, reg: Reg) -> int:
        return self._rows[self._index.id(reg)].bit_count()

    def n_edges(self) -> int:
        return sum(row.bit_count() for row in self._rows.values()) // 2

    # -- mutation (coalescing support) -------------------------------------------

    def merge(self, keep: Reg, gone: Reg) -> None:
        """Combine node *gone* into *keep*: N(keep) := N(keep) ∪ N(gone).

        Used by coalescing.  The result is the interference graph of the
        rewritten code (up to the usual conservative union).  With a
        single bitset representation, ``interferes`` and ``neighbors``
        cannot drift apart — both read the same rows.
        """
        if keep.rclass is not gone.rclass:
            raise ValueError(f"cannot merge {keep} with {gone}")
        rows = self._rows
        ik = self._index.id(keep)
        ig = self._index.id(gone)
        keep_bit = 1 << ik
        gone_bit = 1 << ig
        gone_row = rows.pop(ig) & ~keep_bit
        del self._node_regs[ig]
        for j in iter_bits(gone_row):
            rows[j] = (rows[j] & ~gone_bit) | keep_bit
        rows[ik] = (rows[ik] | gone_row) & ~gone_bit

    def remove_node(self, reg: Reg) -> None:
        i = self._index.id(reg)
        bit = 1 << i
        row = self._rows.pop(i)
        del self._node_regs[i]
        for j in iter_bits(row):
            self._rows[j] &= ~bit

    # -- incremental maintenance ---------------------------------------------

    def try_refresh_after_coalesce(
            self, fn: Function, liveness: LivenessInfo, dirty: set[Reg],
            max_block_fraction: float = 0.5) -> GraphPatchStats | None:
        """Patch this graph after a coalesce pass so it equals a fresh
        :func:`build_interference_graph` over the rewritten code —
        node order included — touching only what the merges disturbed.

        *dirty* names every register involved in a merge this pass
        (survivors and merged-away members).  Exactness rests on the
        merge structure: the rewrite only renames dirty registers and
        deletes copies that mention them, so the liveness of a clean
        register is unchanged at every unchanged definition point — all
        adjacency bits that can differ from a fresh build involve at
        least one dirty node.  The patch therefore clears the dirty
        rows and columns, re-derives edges incident to dirty nodes by
        rescanning only the blocks where a dirty register is referenced
        or live, and restores program-order node insertion (simplify
        and select iterate :meth:`nodes`; byte-identical coloring needs
        the fresh-build order).

        *liveness* must already reflect the rewrite (the coalescer
        renames it in place).  When more than *max_block_fraction* of
        the blocks would need rescanning — typical for the first, very
        aggressive pass of a round — returns ``None`` without touching
        the graph; the caller should rebuild from scratch.
        """
        index = self._index
        dirty_mask = 0
        for reg in dirty:
            i = index.get(reg)
            if i is not None:
                dirty_mask |= 1 << i
        if not dirty_mask:
            return GraphPatchStats()

        rows = self._rows
        hit_blocks = [
            blk for blk in fn.blocks
            if (liveness.use_bits(blk.label) | liveness.def_bits(blk.label)
                | liveness.live_out_bits(blk.label)) & dirty_mask]
        if len(hit_blocks) > max_block_fraction * len(fn.blocks):
            return None
        stats = GraphPatchStats(blocks_rescanned=len(hit_blocks))

        # fresh-build node set and insertion order (same scan as
        # build_interference_graph's add_node loop: dests before srcs)
        new_node_regs: dict[int, Reg] = {}
        ensure = index.ensure
        for blk in fn.blocks:
            for inst in blk.instructions:
                for r in inst.dests:
                    i = ensure(r)
                    if i not in new_node_regs:
                        new_node_regs[i] = r
                for r in inst.srcs:
                    i = ensure(r)
                    if i not in new_node_regs:
                        new_node_regs[i] = r

        keep = ~dirty_mask
        for i in list(rows):
            if i not in new_node_regs:
                # gone from the code entirely (merged away: necessarily
                # dirty, so its bits in surviving rows fall to the
                # column clear below)
                del rows[i]
            elif (1 << i) & dirty_mask:
                rows[i] = 0
            else:
                rows[i] &= keep
        for i in new_node_regs:
            if i not in rows:
                rows[i] = 0
        self._node_regs = new_node_regs

        add_def_edges = self.add_def_edges
        for blk in hit_blocks:
            live = liveness.live_out_bits(blk.label)
            for inst in reversed(blk.instructions):
                dest_bits = 0
                if inst.dests:
                    exempt = live
                    if inst.is_copy:
                        exempt &= ~(1 << ensure(inst.src))
                    dirty_live = exempt & dirty_mask
                    for d in inst.dests:
                        bit = 1 << ensure(d)
                        dest_bits |= bit
                        # a clean definition already carries its
                        # clean-neighbor edges; only the dirty slice of
                        # the live set can differ from a fresh build
                        if bit & dirty_mask:
                            add_def_edges(d, exempt)
                        elif dirty_live:
                            add_def_edges(d, dirty_live)
                src_bits = 0
                for s in inst.srcs:
                    src_bits |= 1 << ensure(s)
                live = (live & ~dest_bits) | src_bits

        for i in iter_bits(dirty_mask):
            row = rows.get(i)
            if row is not None:
                stats.edges_patched += row.bit_count()
        return stats


def diff_graphs(a: InterferenceGraph, b: InterferenceGraph) -> list[str]:
    """Human-readable mismatches between two graphs sharing one
    :class:`RegIndex` (empty when identical, node order included); the
    ``verify_incremental`` cross-check for incremental refreshes."""
    if a.index is not b.index:
        raise ValueError("graphs must share a RegIndex to be compared")
    problems: list[str] = []
    order_a = list(a._node_regs.values())
    order_b = list(b._node_regs.values())
    if order_a != order_b:
        extra = set(order_a) ^ set(order_b)
        what = (f"node sets differ: {sorted(map(str, extra))}" if extra
                else "node insertion order differs")
        problems.append(what)
    for i in a._rows.keys() & b._rows.keys():
        if a._rows[i] != b._rows[i]:
            ra, rb = a._rows[i], b._rows[i]
            only_a = a.index.to_set(ra & ~rb)
            only_b = b.index.to_set(rb & ~ra)
            problems.append(
                f"row {a.index.reg(i)}: only-patched="
                f"{sorted(map(str, only_a))} "
                f"only-fresh={sorted(map(str, only_b))}")
    return problems


def build_interference_graph(
        fn: Function,
        liveness: LivenessInfo | None = None) -> InterferenceGraph:
    """Construct the interference graph of *fn* (post-renumber code).

    Classic backward walk: at each definition point the destinations
    interfere with everything currently live, except that a copy's
    destination does not interfere with its source (Chaitin's refinement
    that makes coalescing possible).

    A precomputed *liveness* (sharing its :class:`RegIndex`) may be
    passed; the allocator's build–coalesce loop uses this to reuse one
    liveness fixed point across graph rebuilds.
    """
    if liveness is None:
        liveness = compute_liveness(fn)
    index = liveness.index
    ensure = index.ensure
    graph = InterferenceGraph(index=index)
    for _blk, inst in fn.instructions():
        for r in inst.regs():
            graph.add_node(r)

    for blk in fn.blocks:
        live = liveness.live_out_bits(blk.label)
        for inst in reversed(blk.instructions):
            dest_bits = 0
            for d in inst.dests:
                dest_bits |= 1 << ensure(d)
            exempt = live
            if inst.is_copy:
                exempt &= ~(1 << ensure(inst.src))
            for d in inst.dests:
                graph.add_def_edges(d, exempt)
            src_bits = 0
            for s in inst.srcs:
                src_bits |= 1 << ensure(s)
            live = (live & ~dest_bits) | src_bits
    return graph
