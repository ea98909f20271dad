"""A fast local (per-block) register allocator.

The paper closes Section 5.4 by noting that graph-coloring speeds "are not
competitive with the fast, local techniques used in non-optimizing
compilers [Fraser–Hanson]; however, we believe that global optimizations
require global register allocation."  This module provides that local
baseline so the trade-off is measurable: every virtual register gets a
frame home, values are kept in registers only within a basic block
(write-through to the home on every definition), and nothing survives a
block boundary in a register.

Allocation is a single linear pass — far faster than the coloring
pipeline — and the produced code is far slower, which is exactly the
paper's point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir import (Function, Instruction, Opcode, Reg, RegClass,
                  verify_function)
from ..machine import MachineDescription, standard_machine
from ..obs import Span, Tracer


class LocalAllocationError(RuntimeError):
    """Raised when an instruction needs more registers than the file has."""


@dataclass
class LocalAllocationResult:
    """The rewritten function plus simple statistics."""

    function: Function
    machine: MachineDescription
    n_reloads: int = 0
    n_stores: int = 0
    n_slots: int = 0
    #: the allocation's root span (``local_allocate``), the run's timing
    trace: Span | None = field(default=None, repr=False, compare=False)


class _BlockState:
    """Register bindings within one basic block."""

    def __init__(self, machine: MachineDescription) -> None:
        self.machine = machine
        #: virtual -> physical
        self.binding: dict[Reg, Reg] = {}
        #: physical -> virtual
        self.holder: dict[Reg, Reg] = {}
        #: LRU order of physical registers per class (front = oldest)
        self.lru: dict[RegClass, list[Reg]] = {RegClass.INT: [],
                                               RegClass.FLOAT: []}

    def touch(self, phys: Reg) -> None:
        order = self.lru[phys.rclass]
        if phys in order:
            order.remove(phys)
        order.append(phys)

    def allocate(self, virt: Reg, pinned: set[Reg]) -> Reg:
        """A physical register for *virt*, evicting the LRU if needed."""
        k = self.machine.k(virt.rclass)
        in_use = {p.index for p in self.holder if p.rclass is virt.rclass}
        for index in range(k):
            if index not in in_use:
                phys = Reg(virt.rclass, index, physical=True)
                self.bind(virt, phys)
                return phys
        for phys in self.lru[virt.rclass]:
            if phys not in pinned:
                self.unbind(self.holder[phys])
                self.bind(virt, phys)
                return phys
        raise LocalAllocationError(
            f"instruction needs more than {k} {virt.rclass.name} registers")

    def bind(self, virt: Reg, phys: Reg) -> None:
        self.binding[virt] = phys
        self.holder[phys] = virt
        self.touch(phys)

    def unbind(self, virt: Reg) -> None:
        phys = self.binding.pop(virt)
        del self.holder[phys]
        self.lru[phys.rclass].remove(phys)


def allocate_local(fn: Function,
                   machine: MachineDescription | None = None,
                   clone: bool = True,
                   tracer: Tracer | None = None) -> LocalAllocationResult:
    """Allocate *fn* with the local write-through strategy."""
    if machine is None:
        machine = standard_machine()
    if machine.int_regs < 3 or machine.float_regs < 2:
        raise LocalAllocationError(
            "the local allocator needs at least 3 int / 2 float registers")
    if tracer is None:
        tracer = Tracer()
    with tracer.span("local_allocate", fn=fn.name,
                     machine=machine.name) as root:
        with tracer.span("clone"):
            work = fn.clone() if clone else fn
        result = LocalAllocationResult(function=work, machine=machine)
        _rewrite_blocks(work, machine, result)
        result.n_slots = work.n_spill_slots
        verify_function(work, require_physical=True,
                        max_int_reg=machine.int_regs,
                        max_float_reg=machine.float_regs)
    result.trace = root
    return result


def _rewrite_blocks(work: Function, machine: MachineDescription,
                    result: LocalAllocationResult) -> None:
    """The single linear pass: reload-before-use, write-through-on-def."""
    homes: dict[Reg, int] = {}

    def home_of(virt: Reg) -> int:
        if virt not in homes:
            homes[virt] = work.new_spill_slot()
        return homes[virt]

    def reload_op(rclass: RegClass) -> Opcode:
        return Opcode.SPLD if rclass is RegClass.INT else Opcode.FSPLD

    def store_op(rclass: RegClass) -> Opcode:
        return Opcode.SPST if rclass is RegClass.INT else Opcode.FSPST

    for blk in work.blocks:
        state = _BlockState(machine)
        new_instructions: list[Instruction] = []
        for inst in blk.instructions:
            pinned: set[Reg] = set()
            # sources: reload from home if not already bound.  Source and
            # destination maps are kept apart: for `add r1 r1 r2` the
            # source r1 must read its old register even though the
            # destination r1 may land elsewhere.
            src_map: dict[Reg, Reg] = {}
            for src in inst.srcs:
                if src in src_map:
                    continue
                phys = state.binding.get(src)
                if phys is None:
                    phys = state.allocate(src, pinned)
                    new_instructions.append(
                        Instruction(reload_op(src.rclass), dests=(phys,),
                                    imms=(home_of(src),)))
                    result.n_reloads += 1
                else:
                    state.touch(phys)
                src_map[src] = phys
                pinned.add(phys)
            inst.srcs = tuple(src_map[s] for s in inst.srcs)
            # destinations: bind and write through to the home slot
            stores: list[Instruction] = []
            dest_map: dict[Reg, Reg] = {}
            for dest in inst.dests:
                if dest in state.binding:
                    state.unbind(dest)
                phys = state.allocate(dest, pinned)
                dest_map[dest] = phys
                pinned.add(phys)
                stores.append(
                    Instruction(store_op(dest.rclass), srcs=(phys,),
                                imms=(home_of(dest),)))
                result.n_stores += 1
            inst.dests = tuple(dest_map[d] for d in inst.dests)
            new_instructions.append(inst)
            new_instructions.extend(stores)
        blk.instructions = new_instructions
