"""Per-block register pressure (MAXLIVE) and spill-everywhere choice.

Bouchez, Darte and Rastello ("On the Complexity of Spill Everywhere
under SSA Form", PAPERS.md) observe that on SSA form the interference
graph is chordal, so the chromatic number equals the maximum clique —
and the maximum clique at any program point is simply the set of values
live there.  Allocation therefore decomposes: *per-block MAXLIVE
decides colorability*, spilling lowers MAXLIVE to at most k, and a
greedy walk down the dominance tree then colors without backtracking
(:mod:`repro.regalloc.domtree_color`).

This module supplies the two pressure-side pieces:

* :func:`compute_block_maxlive` — the per-block pressure summary.  The
  pressure of a *point* is the number of simultaneously live registers
  of one class; a block's points are its entry, the instant before each
  instruction, and each definition instant (where the destinations
  coexist with everything live after, matching the def-point edges of
  :func:`~repro.regalloc.interference.build_interference_graph`).
* :func:`choose_spill_everywhere` — walk every point once and, wherever
  effective pressure exceeds the register file, pick the cheapest
  live-through ranges to spill *everywhere* (whole ranges, the paper's
  Chaitin-style granularity — reload temps reuse the existing
  remat-aware :func:`~repro.regalloc.spillcode.insert_spill_code`).
  "Effective" pressure discounts already-spilled ranges but charges one
  register per spilled operand of the adjacent instruction, since its
  reload/store temp occupies a register at exactly that point.

Both walks are deterministic: blocks in reverse postorder, victims by
``(cost, register)``, registers ordering like ``Reg.sort_key``.
"""

from __future__ import annotations

from ..analysis import LivenessInfo
from ..ir import Function, Reg, RegClass
from ..machine import MachineDescription
from ..obs import NULL_TRACER, SSASpillDecision
from .spillcost import SpillCosts

#: the register classes with their own files (and own pressure)
_CLASSES = (RegClass.INT, RegClass.FLOAT)


def _block_points(fn: Function, liveness: LivenessInfo, label: str):
    """Yield ``(inst | None, bits)`` for every pressure point of the
    block: ``(None, live_in)`` for the entry, ``(inst, before)`` for
    each use point, ``(inst, after | dests)`` for each def point."""
    ensure = liveness.index.ensure
    pairs = list(liveness.scan_block_bits(label))
    if not pairs:
        yield None, liveness.live_in_bits(label)
        return
    out = liveness.live_out_bits(label)
    befores = [bits for _inst, bits in pairs]
    yield None, befores[0]
    for i, (inst, before) in enumerate(pairs):
        yield inst, before
        if inst.dests:
            after = befores[i + 1] if i + 1 < len(pairs) else out
            dest_bits = 0
            for d in inst.dests:
                dest_bits |= 1 << ensure(d)
            yield inst, after | dest_bits


def compute_block_maxlive(
        fn: Function,
        liveness: LivenessInfo) -> dict[str, dict[RegClass, int]]:
    """The per-block, per-class maximum register pressure of *fn*.

    ``result[label][rclass]`` is the largest number of *rclass*
    registers simultaneously live at any point of the block (def points
    counting destinations against the live-after set).  A function is
    greedily colorable down the dominance tree exactly when every entry
    is at most the machine's ``k`` for that class.
    """
    index = liveness.index
    # per-class lists in _CLASSES order: a RegClass dict key hashes
    # through Enum.__hash__, a Python call, at every point
    masks = [index.class_mask(cls) for cls in _CLASSES]
    result: dict[str, dict[RegClass, int]] = {}
    for blk in fn.blocks:
        best = [0] * len(_CLASSES)
        for _inst, bits in _block_points(fn, liveness, blk.label):
            for i, mask in enumerate(masks):
                n = (bits & mask).bit_count()
                if n > best[i]:
                    best[i] = n
        result[blk.label] = dict(zip(_CLASSES, best))
    return result


def choose_spill_everywhere(fn: Function, liveness: LivenessInfo,
                            machine: MachineDescription,
                            costs: SpillCosts,
                            tracer=NULL_TRACER) -> list[Reg]:
    """Pick live ranges to spill everywhere until no point's effective
    pressure exceeds the register file.

    One forward walk per block (blocks in reverse postorder).  At every
    over-pressure point the victim is the cheapest live-*through* range
    — spilling a range used or defined at the point itself cannot lower
    that point's pressure, because its reload/store temp still needs a
    register there.  The cost sort puts infinite-cost ranges (spill
    temps) last, so they are only ever taken as a last resort —
    mirroring simplify's infinite-cost fallback.

    Returns the chosen ranges in decision order (deterministic); the
    caller hands them to
    :func:`~repro.regalloc.spillcode.insert_spill_code`.
    """
    index = liveness.index
    classes = [(cls, index.class_mask(cls), machine.k(cls))
               for cls in _CLASSES]
    cost_of = costs.cost
    spilled: list[Reg] = []
    spilled_bits = 0
    events = getattr(tracer, "events_enabled", False)

    for label in fn.reverse_postorder():
        for inst, bits in _block_points(fn, liveness, label):
            # registers whose reload/store temps occupy this point
            pinned: tuple[Reg, ...] = ()
            if inst is not None:
                pinned = tuple(dict.fromkeys(inst.regs()))
            for cls, mask, k in classes:
                live = bits & mask & ~spilled_bits
                extra = sum(1 for r in pinned
                            if r.rclass is cls
                            and spilled_bits >> index.ensure(r) & 1)
                need = live.bit_count() + extra - k
                if need <= 0:
                    continue
                through = live
                for r in pinned:
                    if r.rclass is cls:
                        through &= ~(1 << index.ensure(r))
                candidates = sorted(
                    index.iter_regs(through),
                    key=lambda r: (cost_of.get(r, 0.0), r))
                for victim in candidates:
                    if need <= 0:
                        break
                    spilled.append(victim)
                    spilled_bits |= 1 << index.ensure(victim)
                    need -= 1
                    if events:
                        tracer.event(SSASpillDecision(
                            range=str(victim),
                            cost=cost_of.get(victim, 0.0),
                            block=label,
                            pressure=live.bit_count() + extra,
                            k=k,
                            remat_tag=(str(costs.remat[victim])
                                       if victim in costs.remat else None),
                            chosen_because="over-pressure"))
                # a point that stays over-pressure after exhausting its
                # live-through ranges is left for the next round: the
                # spill code inserted for this round's victims shortens
                # ranges everywhere and the chooser runs again
    return spilled
