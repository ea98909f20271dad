"""Pruned SSA construction.

Follows the approach the paper adopts for renumber (Section 4.1):

1. liveness at each basic block,
2. φ-node insertion on (iterated) dominance frontiers [Cytron et al.],
   *pruned* — a φ for register r is inserted at a join only if r is live-in
   there, so no dead φ-nodes appear,
3. renaming of all operands to fresh *values* via a dominator-tree walk.

φ-nodes are represented as leading :data:`~repro.ir.Opcode.PHI`
pseudo-instructions; the i-th φ operand corresponds to the i-th entry of
``SSAInfo.phi_preds[block]``.  The transformation happens in place; callers
that need to keep the original should :meth:`~repro.ir.Function.clone`
first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis import (DominanceInfo, LivenessInfo, compute_dominance,
                        compute_liveness, iterated_dominance_frontier)
from ..ir import Function, Instruction, Opcode, Reg


class SSAError(ValueError):
    """Raised when construction hits a use of a never-defined register."""


@dataclass
class SSAInfo:
    """Metadata produced by :func:`construct_ssa`.

    Attributes:
        dom: the dominance facts used during construction.
        phi_preds: for each block containing φs, the predecessor order that
            φ operands follow.
        def_site: for each SSA value, ``(block_label, defining_instruction)``
            (for φ values the instruction is the PHI pseudo-op).
        orig_reg: for each SSA value, the pre-SSA register it renames.
    """

    dom: DominanceInfo
    phi_preds: dict[str, list[str]] = field(default_factory=dict)
    def_site: dict[Reg, tuple[str, Instruction]] = field(default_factory=dict)
    orig_reg: dict[Reg, Reg] = field(default_factory=dict)

    def values(self) -> set[Reg]:
        return set(self.def_site)

    def values_of(self, original: Reg) -> list[Reg]:
        """All SSA values renaming one original register."""
        return [v for v, o in self.orig_reg.items() if o == original]


def construct_ssa(fn: Function, dom: DominanceInfo | None = None,
                  liveness: LivenessInfo | None = None) -> SSAInfo:
    """Convert *fn* to pruned SSA in place and return the metadata.

    Critical edges should be split beforehand if φ-operand copies will be
    placed on edges later (the allocator driver does this).
    """
    if dom is None:
        dom = compute_dominance(fn)
    if liveness is None:
        liveness = compute_liveness(fn)
    preds_map = fn.predecessors_map()
    rpo_position = {label: i for i, label in enumerate(dom.rpo)}
    reachable = rpo_position.keys()

    # -- collect def blocks per register -----------------------------------------
    def_blocks: dict[Reg, set[str]] = {}
    for blk in fn.blocks:
        if blk.label not in reachable:
            continue
        for inst in blk.instructions:
            for d in inst.dests:
                def_blocks.setdefault(d, set()).add(blk.label)

    # -- insert pruned φ-nodes ------------------------------------------------------
    info = SSAInfo(dom=dom)
    phi_for: dict[tuple[str, Reg], Instruction] = {}
    for reg, blocks in def_blocks.items():
        # reverse postorder, not the label set's string-hash order: the
        # order of ``phi_preds`` decides the order of split insertion
        # (and of its events), which must not depend on the hash seed
        for label in sorted(iterated_dominance_frontier(dom, blocks),
                            key=rpo_position.__getitem__):
            ps = [p for p in preds_map[label] if p in reachable]
            if len(ps) < 2:
                continue
            if reg not in liveness.live_in(label):
                continue  # pruning: dead φ
            if (label, reg) in phi_for:
                continue
            phi = Instruction(Opcode.PHI, dests=(reg,),
                              srcs=tuple(reg for _ in ps))
            phi_for[(label, reg)] = phi
            blk = fn.block(label)
            blk.instructions.insert(0, phi)
            info.phi_preds.setdefault(label, ps)

    # -- rename via dominator-tree walk ------------------------------------------------
    stacks: dict[Reg, list[Reg]] = {}
    phi_origin: dict[int, Reg] = {}  # id(phi) -> original register

    for (label, reg), phi in phi_for.items():
        phi_origin[id(phi)] = reg

    def fresh_value(original: Reg, label: str, inst: Instruction) -> Reg:
        value = fn.new_reg(original.rclass)
        info.def_site[value] = (label, inst)
        info.orig_reg[value] = original
        return value

    def top(reg: Reg, label: str) -> Reg:
        stack = stacks.get(reg)
        if not stack:
            raise SSAError(
                f"{fn.name}: register {reg} used in {label} but not "
                f"defined on every path")
        return stack[-1]

    # iterative preorder walk with explicit post-processing for stack pops
    def process_block(label: str) -> list[tuple[Reg, Reg]]:
        """Rename one block; returns the (original, value) pushes made."""
        pushes: list[tuple[Reg, Reg]] = []
        blk = fn.block(label)
        for inst in blk.instructions:
            if inst.opcode is Opcode.PHI:
                original = phi_origin[id(inst)]
                value = fresh_value(original, label, inst)
                inst.dests = (value,)
                stacks.setdefault(original, []).append(value)
                pushes.append((original, value))
                continue
            inst.srcs = tuple(top(s, label) for s in inst.srcs)
            new_dests = []
            for d in inst.dests:
                value = fresh_value(d, label, inst)
                stacks.setdefault(d, []).append(value)
                pushes.append((d, value))
                new_dests.append(value)
            inst.dests = tuple(new_dests)
        # fill φ operands of successors
        for succ in blk.successors():
            if succ not in info.phi_preds:
                continue
            pred_index = info.phi_preds[succ].index(label)
            for phi in fn.block(succ).phis():
                original = phi_origin[id(phi)]
                srcs = list(phi.srcs)
                srcs[pred_index] = top(original, label)
                phi.srcs = tuple(srcs)
        return pushes

    # explicit stack to avoid recursion limits
    entry = dom.rpo[0]
    work: list[tuple[str, bool]] = [(entry, False)]
    pending_pops: dict[str, list[tuple[Reg, Reg]]] = {}
    while work:
        label, done = work.pop()
        if done:
            for original, _value in reversed(pending_pops.pop(label)):
                stacks[original].pop()
            continue
        pending_pops[label] = process_block(label)
        work.append((label, True))
        for child in reversed(dom.children[label]):
            work.append((child, False))

    return info
