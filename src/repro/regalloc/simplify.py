"""The optimistic simplify phase (Section 2, *Simplify*).

Briggs' variant of Chaitin's simplification: remove nodes of degree < k
(pushing them on the stack and decrementing neighbor degrees); when only
high-degree nodes remain, choose a spill *candidate* by Chaitin's metric —
minimum spill cost divided by current degree — but push it on the stack
anyway ("optimism"): select may still find it a color.

The phase is exact Briggs but engineered for scale: live nodes are a
bitset mask (so neighbor walks skip removed nodes with one AND), per-id
arrays replace per-``Reg`` dict probes on the hot decrement path, and
the spill-candidate choice is a lazy min-heap over ``(ratio, node)``
refreshed on every degree decrement — the same candidate the original
linear rescan picked (min ratio, ties to the smaller register, which
orders like ``sort_key``), at
``O(log n)`` per choice instead of ``O(live nodes)``.  Degrees only
fall, so a popped entry is valid exactly when it matches the node's
current ratio; stale entries are discarded lazily and the heap is
compacted when it outgrows the live set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush

from ..analysis import iter_bits
from ..ir import Reg
from ..machine import MachineDescription
from ..obs import NULL_TRACER, SpillCandidateChosen
from .interference import InterferenceGraph
from .spillcost import SpillCosts


@dataclass
class SimplifyResult:
    """The coloring order and which pushes were spill candidates."""

    #: every node, in push order (select pops from the end)
    stack: list[Reg]
    #: nodes pushed as spill candidates (degree >= k at push time)
    candidates: set[Reg]
    #: nodes spilled outright by the pessimistic (original Chaitin)
    #: variant; empty under the optimistic default
    pessimistic_spills: list[Reg] = field(default_factory=list)


def simplify(graph: InterferenceGraph, machine: MachineDescription,
             costs: SpillCosts, optimistic: bool = True,
             tracer=NULL_TRACER) -> SimplifyResult:
    """Order the nodes of *graph* for select.

    With ``optimistic=False`` the phase behaves like Chaitin's original
    simplification: a spill candidate is spilled immediately instead of
    being pushed for select to try — the pessimism that Briggs' optimistic
    coloring removed (and the paper's base allocator assumes removed).

    Each spill-candidate choice is emitted as a
    :class:`~repro.obs.SpillCandidateChosen` event with its cost/degree
    provenance when the tracer captures events.
    """
    index = graph.index
    nodes = graph.nodes()
    ids = [index.id(n) for n in nodes]
    width = len(index)
    regs_by_id: list[Reg | None] = [None] * width
    degree_by_id = [0] * width
    k_by_id = [0] * width
    cost_by_id = [math.inf] * width
    cost_get = costs.cost.get
    alive_mask = 0
    for node, i in zip(nodes, ids):
        regs_by_id[i] = node
        degree_by_id[i] = graph.degree(node)
        k_by_id[i] = machine.k(node.rclass)
        cost_by_id[i] = cost_get(node, math.inf)
        alive_mask |= 1 << i
    n_alive = len(nodes)

    stack: list[Reg] = []
    candidates: set[Reg] = set()
    pessimistic_spills: list[Reg] = []

    # the candidate heap holds (ratio, node) for finite-cost nodes;
    # infinite-cost nodes (spill temps) are only ever a fallback, served
    # in node order by an advancing pointer
    heap: list[tuple[float, Reg]] = [
        (cost_by_id[i] / max(degree_by_id[i], 1), node)
        for node, i in zip(nodes, ids)
        if not math.isinf(cost_by_id[i])]
    heapify(heap)
    inf_nodes = [(node, i) for node, i in zip(nodes, ids)
                 if math.isinf(cost_by_id[i])]
    inf_pos = 0

    worklist = [n for n, i in zip(nodes, ids)
                if degree_by_id[i] < k_by_id[i]]

    def remove(node: Reg, push: bool = True) -> None:
        nonlocal alive_mask, n_alive
        i = index.id(node)
        alive_mask &= ~(1 << i)
        n_alive -= 1
        if push:
            stack.append(node)
        # neighbors in dense-index order: deterministic across runs,
        # unlike hash-ordered set iteration
        for j in iter_bits(graph.neighbor_bits(node) & alive_mask):
            d = degree_by_id[j] = degree_by_id[j] - 1
            if d == k_by_id[j] - 1:
                worklist.append(regs_by_id[j])
            c = cost_by_id[j]
            if not math.isinf(c):
                heappush(heap, (c / max(d, 1), regs_by_id[j]))

    def pick_candidate() -> Reg | None:
        nonlocal inf_pos
        # compact when stale entries dominate (bounded memory, amortized
        # linear): rebuild from the currently-alive finite nodes
        if len(heap) > 1024 and len(heap) > 4 * n_alive:
            fresh = [
                (cost_by_id[i] / max(degree_by_id[i], 1), regs_by_id[i])
                for i in iter_bits(alive_mask)
                if not math.isinf(cost_by_id[i])]
            heap[:] = fresh
            heapify(heap)
        while heap:
            ratio, node = heap[0]
            i = index.id(node)
            if (not alive_mask >> i & 1
                    or ratio != cost_by_id[i] / max(degree_by_id[i], 1)):
                heappop(heap)  # removed node or stale (pre-decrement) ratio
                continue
            return node
        while inf_pos < len(inf_nodes):
            node, i = inf_nodes[inf_pos]
            if alive_mask >> i & 1:
                return node
            inf_pos += 1
        return None

    while n_alive:
        while worklist:
            node = worklist.pop()
            i = index.id(node)
            if alive_mask >> i & 1 and degree_by_id[i] < k_by_id[i]:
                remove(node)
        if not n_alive:
            break
        candidate = pick_candidate()
        if candidate is None:
            break  # only isolated leftovers; cannot happen in practice
        candidates.add(candidate)
        if tracer.events_enabled:
            ci = index.id(candidate)
            cost = cost_by_id[ci]
            deg = degree_by_id[ci]
            tracer.event(SpillCandidateChosen(
                range=str(candidate), cost=cost, degree=deg,
                ratio=cost / max(deg, 1),
                chosen_because=("infinite-cost-fallback"
                                if math.isinf(cost) else "min-ratio"),
                optimistic=optimistic))
        if optimistic:
            remove(candidate)
        else:
            pessimistic_spills.append(candidate)
            remove(candidate, push=False)
    return SimplifyResult(stack=stack, candidates=candidates,
                          pessimistic_spills=pessimistic_spills)
