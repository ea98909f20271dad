"""The select phase with biased coloring (Sections 2 and 4.3).

Select pops nodes off simplify's stack and gives each a color distinct
from its already-colored neighbors; nodes with no free color are left
uncolored (they will be spilled).

*Biased coloring* removes unproductive splits late: before coloring, the
allocator finds *partners* — live ranges connected by split (or copy)
instructions — and select first tries colors already assigned to a
partner.  With *limited lookahead* it additionally prefers, among free
colors, one that is still free for an uncolored partner, so the partner
can later match it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir import Function, Reg
from ..machine import MachineDescription
from ..obs import ColorAssigned, NULL_TRACER
from .interference import InterferenceGraph
from .simplify import SimplifyResult


@dataclass
class SelectResult:
    """Colors for the colorable nodes, plus the nodes left uncolored."""

    coloring: dict[Reg, int] = field(default_factory=dict)
    spilled: list[Reg] = field(default_factory=list)


def find_partners(fn: Function,
                  splits_only: bool = False) -> dict[Reg, set[Reg]]:
    """Live ranges connected by split (and optionally plain copy)
    instructions."""
    partners: dict[Reg, set[Reg]] = {}
    for _blk, inst in fn.instructions():
        if not inst.is_copy:
            continue
        if splits_only and not inst.is_split:
            continue
        a, b = inst.dest, inst.src
        if a == b:
            continue
        partners.setdefault(a, set()).add(b)
        partners.setdefault(b, set()).add(a)
    return partners


def select(graph: InterferenceGraph, order: SimplifyResult,
           machine: MachineDescription,
           partners: dict[Reg, set[Reg]] | None = None,
           lookahead: bool = True, tracer=NULL_TRACER) -> SelectResult:
    """Assign colors in the order determined by simplify.

    When the tracer captures events, every successful assignment emits a
    :class:`~repro.obs.ColorAssigned` event recording whether the color
    came from a biased-partner hit or the limited lookahead.
    """
    partners = partners or {}
    result = SelectResult()
    coloring = result.coloring

    index = graph.index
    # one bitset of already-colored nodes per color: a color is
    # forbidden iff the node's adjacency row intersects that color's
    # bitset, so the forbidden set costs k big-int ANDs instead of a
    # dict probe per neighbor (rows are same-class by construction, so
    # the two register files can share the array)
    colored_with = [0] * machine.max_k()
    for node in reversed(order.stack):
        k = machine.k(node.rclass)
        row = graph.neighbor_bits(node)
        available = [c for c in range(k) if not row & colored_with[c]]
        if not available:
            result.spilled.append(node)
            continue
        color, because = _choose_color(node, available, graph, coloring,
                                       colored_with, partners, lookahead)
        coloring[node] = color
        colored_with[color] |= 1 << index.id(node)
        if tracer.events_enabled:
            tracer.event(ColorAssigned(
                range=str(node), color=color,
                n_forbidden=k - len(available),
                biased_hit=because == "biased-partner",
                lookahead_used=because == "lookahead",
                was_candidate=node in order.candidates))
    return result


def _choose_color(node: Reg, available: list[int],
                  graph: InterferenceGraph, coloring: dict[Reg, int],
                  colored_with: list[int],
                  partners: dict[Reg, set[Reg]],
                  lookahead: bool) -> tuple[int, str]:
    """Biased choice among *available* colors, plus why it was chosen
    (``biased-partner`` | ``lookahead`` | ``first-free``)."""
    # sorted for cross-run determinism (sets iterate in hash order)
    mates = sorted(partners.get(node, ()))
    # 1. a color some colored partner already has
    for mate in mates:
        c = coloring.get(mate)
        if c is not None and c in available:
            return c, "biased-partner"
    if lookahead and mates:
        # 2. limited lookahead: prefer a color still free for an uncolored
        #    partner, so the partner can match it later; each mate's
        #    adjacency row is fetched once (it does not depend on the
        #    color under trial) and tested against the per-color bitsets
        mate_rows = [graph.neighbor_bits(m) for m in mates
                     if m not in coloring and m in graph]
        best_color = None
        best_score = -1
        for c in available:
            taken = colored_with[c]
            score = sum(1 for row in mate_rows if not row & taken)
            if score > best_score:
                best_color, best_score = c, score
        if best_color is not None:
            return best_color, "lookahead"
    # 3. first free color (Chaitin's default)
    return available[0], "first-free"
