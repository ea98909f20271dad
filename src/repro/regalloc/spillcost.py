"""Spill-cost estimation (Section 2, *Spill Costs*; Section 3.2 end).

Chaitin's metric: the cost of the memory accesses a spill would add, each
weighted by ``10^d`` where *d* is the instruction's loop-nesting depth.
The rematerialization tags refine this: a never-killed live range needs no
stores — each use costs one execution of the tag instruction, and the
original definitions disappear, so the net cost can even be negative
(a profitable spill).

A live range is rematerializable exactly when *all* of its definitions are
identical never-killed instructions — Chaitin's original criterion.  After
the tag-driven splitting of renumber this test recognizes precisely the
``inst``-tagged live ranges (splits are never inserted *into* an
``inst``-tagged web), so the Old and New allocators can share this code;
the difference between them is entirely in where renumber put the splits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..analysis import LoopInfo
from ..ir import Function, Reg
from ..machine import MachineDescription
from ..obs import NULL_TRACER, RematCost
from ..remat import InstTag


@dataclass
class SpillCosts:
    """Estimated spill cost and remat tag of every live range."""

    cost: dict[Reg, float] = field(default_factory=dict)
    #: live range -> tag, for ranges rematerializable as a whole
    remat: dict[Reg, InstTag] = field(default_factory=dict)

    def is_remat(self, reg: Reg) -> bool:
        return reg in self.remat


def compute_spill_costs(fn: Function, loops: LoopInfo,
                        machine: MachineDescription,
                        no_spill: set[Reg] | None = None,
                        tracer=NULL_TRACER) -> SpillCosts:
    """Estimate spill costs for every register of *fn*.

    Registers in *no_spill* (spill temporaries from earlier rounds) get
    infinite cost so the spill-candidate chooser never selects them.
    When the tracer captures events, every range recognized as
    rematerializable emits a :class:`~repro.obs.RematCost` event
    carrying its tag and net cost.
    """
    no_spill = no_spill or set()
    use_weight: dict[Reg, float] = {}
    def_weight: dict[Reg, float] = {}
    def_keys: dict[Reg, set] = {}
    def_count: dict[Reg, int] = {}
    seen: set[Reg] = set()

    for blk in fn.blocks:
        weight = float(10 ** loops.depth.get(blk.label, 0))
        for inst in blk.instructions:
            # one reload serves all occurrences of a register in one
            # instruction, so count each register once per instruction
            for s in set(inst.srcs):
                use_weight[s] = use_weight.get(s, 0.0) + weight
                seen.add(s)
            for d in inst.dests:
                def_weight[d] = def_weight.get(d, 0.0) + weight
                def_count[d] = def_count.get(d, 0) + 1
                seen.add(d)
                keys = def_keys.setdefault(d, set())
                if inst.is_never_killed:
                    keys.add(inst.remat_key())
                else:
                    keys.add(None)  # not rematerializable from this def

    costs = SpillCosts()
    for reg in seen:
        keys = def_keys.get(reg, set())
        remat_tag: InstTag | None = None
        if len(keys) == 1:
            (key,) = keys
            if key is not None:
                opcode, imms = key
                remat_tag = InstTag(opcode, imms)
        if reg in no_spill:
            costs.cost[reg] = math.inf
        elif remat_tag is not None:
            remat_cost = machine.cycle_cost(remat_tag.opcode)
            # each use is replaced by one remat instruction; every def
            # disappears (it recomputed a value nobody keeps)
            costs.cost[reg] = (remat_cost * use_weight.get(reg, 0.0)
                               - remat_cost * def_weight.get(reg, 0.0))
        else:
            costs.cost[reg] = (machine.load_cost * use_weight.get(reg, 0.0)
                               + machine.store_cost * def_weight.get(reg, 0.0))
        if remat_tag is not None:
            costs.remat[reg] = remat_tag
    if tracer.events_enabled:
        # register order: `seen` iterates in hash order
        for reg in sorted(costs.remat):
            tracer.event(RematCost(range=str(reg), cost=costs.cost[reg],
                                   remat_tag=str(costs.remat[reg])))
    return costs
