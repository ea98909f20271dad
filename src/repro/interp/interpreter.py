"""An ILOC interpreter with dynamic instruction counting.

This substitutes for the paper's ILOC→C translation: "we can add
instrumentation to count the number of times any specific ILOC instruction
is executed ... we are interested in the number of loads, stores, copies,
load-immediates, and add-immediates" (Section 5).  The interpreter executes
ILOC directly and maintains exactly those counters, keyed by
:class:`~repro.ir.opcodes.CountClass` and by opcode.

Decoding and counting
---------------------

Like the paper's translation, a run turns each instruction into code once
and afterwards only executes it.  The first time control enters a block,
each instruction up to the block's first terminator is decoded into a
closure bound to its operands: registers become small integer slots of
the run's register file, and immediates, spill-slot addresses,
constant-pool entries and arguments are resolved; instructions after the
terminator are never decoded, run or counted.  Running a block is one
call per instruction; the terminator's call returns the next label.
Blocks are decoded lazily, so a branch to a missing label fails only when
taken, and decoded blocks live for one run only, because the allocator
rewrites functions in place.

Counting is per block, not per instruction.  The run counts how often it
entered each block; at the end, each block's hits times its static opcode
histogram, summed over the blocks in first-visit order, give ``steps``,
``counts`` and ``opcode_counts``.  A block always runs to its terminator
(a run that raises returns no counts), so every key sits where its first
dynamic execution put it.  The step budget is checked on block entry: a
block that would cross ``max_steps`` runs only the instructions the budget
allows and then raises.

Memory model
------------

A flat, word-addressed memory (one Python value per 8-byte cell):

* the *static data area* starts at :data:`SD_BASE` (``lsd`` offsets are
  relative to it),
* the *frame* sits at :data:`FP_BASE`; ``lfp`` offsets address locals
  upward, spill slots live below the frame pointer and are reached only by
  the ``spld``/``spst`` family,
* a read-only *constant pool* backs ``cldw``/``cldf``; its contents are
  supplied per run.

Checks
------

Every check fails at the dynamic instruction it guards.  Reading a
register that was never written raises :class:`UninitializedRegister` —
this strictness turns allocator bugs (clobbered live values) into loud
failures in the equivalence tests instead of silently wrong answers.  A
non-``int`` value written to an integer register, a non-``int`` address,
division by zero, a missing or mistyped argument, a ``phi``, a block
without a terminator and an exhausted step budget raise
:class:`InterpreterError`; a branch to a missing label raises
``KeyError``.  Checks whose outcome is known when a block is decoded
are settled there: an instruction whose operand classes match its
opcode's signature cannot write a value of the wrong type, so only loads,
which read untyped memory, and mistyped instructions check what they
write; ``cldw``, ``param`` and ``fparam`` validate their constant or
argument once.  An instruction that fails to decode raises that error
when it is reached.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from ..ir import (BasicBlock, CountClass, Function, ImmKind, Instruction,
                  Opcode, Reg, RegClass)

#: base address of the static data area
SD_BASE = 0x10000
#: address of the frame pointer
FP_BASE = 0x1000
#: cell size in bytes (all values are one cell)
WORD = 8


class InterpreterError(RuntimeError):
    """Raised on dynamic errors: bad address, div-by-zero, step overrun…"""


class UninitializedRegister(InterpreterError):
    """Raised when an instruction reads a register never written."""


@dataclass
class RunResult:
    """Everything observable about one execution."""

    #: values emitted by ``out``/``fout``, in order
    output: list
    #: dynamic counts by instrumentation class
    counts: dict[CountClass, int]
    #: dynamic counts by opcode
    opcode_counts: dict[Opcode, int]
    #: total instructions executed
    steps: int
    #: final memory image (address -> value)
    memory: dict[int, object]

    def count(self, cls: CountClass) -> int:
        return self.counts.get(cls, 0)


def _truncdiv(a: int, b: int) -> int:
    """C-style integer division (truncation toward zero)."""
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _not_int(value, reg: Reg) -> InterpreterError:
    return InterpreterError(f"non-integer value {value!r} written to {reg}")


def _bad_address(addr) -> InterpreterError:
    return InterpreterError(f"non-integer address {addr!r}")


def _written(reg: Reg, value):
    """*value* as register *reg* holds it, or raise as writing it would."""
    if reg.rclass is RegClass.INT:
        if not isinstance(value, int):
            raise _not_int(value, reg)
        return value
    return float(value)


# -- operations ---------------------------------------------------------------
#
# Each factory binds one decoded instruction to the run's register file
# ``regs`` (slot -> value) and returns a no-argument closure.  ``d`` is the
# destination slot, ``a``/``b``/``s`` source slots; a read of a missing slot
# raises ``KeyError``, which the run loop reports as UninitializedRegister.

def _set(regs, d, value):
    def op():
        regs[d] = value
    return op


def _copy(regs, d, s):
    def op():
        regs[d] = regs[s]
    return op


def _binary(fn):
    def factory(regs, d, a, b):
        def op():
            regs[d] = fn(regs[a], regs[b])
        return op
    return factory


def _compare(fn):
    def factory(regs, d, a, b):
        def op():
            regs[d] = 1 if fn(regs[a], regs[b]) else 0
        return op
    return factory


def _unary(fn):
    def factory(regs, d, s):
        def op():
            regs[d] = fn(regs[s])
        return op
    return factory


def _immediate(fn):
    def factory(regs, d, s, imm):
        def op():
            regs[d] = fn(regs[s], imm)
        return op
    return factory


def _div(regs, d, a, b):
    def op():
        divisor = regs[b]
        if divisor == 0:
            raise InterpreterError("integer division by zero")
        regs[d] = _truncdiv(regs[a], divisor)
    return op


def _fdiv(regs, d, a, b):
    def op():
        divisor = regs[b]
        if divisor == 0.0:
            raise InterpreterError("float division by zero")
        regs[d] = regs[a] / divisor
    return op


#: register-to-register opcodes -> factory(regs, d, *sources, *immediates)
_COMPUTE = {
    Opcode.ADD: _binary(operator.add), Opcode.SUB: _binary(operator.sub),
    Opcode.MUL: _binary(operator.mul), Opcode.DIV: _div,
    Opcode.NEG: _unary(operator.neg),
    Opcode.ADDI: _immediate(operator.add),
    Opcode.SUBI: _immediate(operator.sub),
    Opcode.MULI: _immediate(operator.mul),
    Opcode.CMP_LT: _compare(operator.lt), Opcode.CMP_LE: _compare(operator.le),
    Opcode.CMP_GT: _compare(operator.gt), Opcode.CMP_GE: _compare(operator.ge),
    Opcode.CMP_EQ: _compare(operator.eq), Opcode.CMP_NE: _compare(operator.ne),
    Opcode.FADD: _binary(operator.add), Opcode.FSUB: _binary(operator.sub),
    Opcode.FMUL: _binary(operator.mul), Opcode.FDIV: _fdiv,
    Opcode.FABS: _unary(abs), Opcode.FNEG: _unary(operator.neg),
    Opcode.FCMP_LT: _compare(operator.lt),
    Opcode.FCMP_LE: _compare(operator.le),
    Opcode.FCMP_GT: _compare(operator.gt),
    Opcode.FCMP_GE: _compare(operator.ge),
    Opcode.FCMP_EQ: _compare(operator.eq),
    Opcode.FCMP_NE: _compare(operator.ne),
    Opcode.I2F: _unary(float), Opcode.F2I: _unary(int),
    Opcode.COPY: _copy, Opcode.FCOPY: _copy, Opcode.SPLIT: _copy,
    Opcode.FSPLIT: _copy,
}

#: register-file key a value waits in for its destination's write check
#: (register slots are >= 0)
_SCRATCH = -1


def _checked(compute, regs, d, reg: Reg):
    """Run *compute*, which writes ``_SCRATCH``, then move the value to
    slot *d* through register *reg*'s write check."""
    if reg.rclass is RegClass.INT:
        def op():
            compute()
            value = regs.pop(_SCRATCH)
            if not isinstance(value, int):
                raise _not_int(value, reg)
            regs[d] = value
    else:
        def op():
            compute()
            regs[d] = float(regs.pop(_SCRATCH))
    return op


# Loads read untyped memory, so the decoder always wraps them in
# :func:`_checked`.  A cell never stored reads as *default* (0 for the
# integer loads, 0.0 for the float ones).

def _load(regs, memory, d, a, default):
    def op():
        addr = regs[a]
        if not isinstance(addr, int):
            raise _bad_address(addr)
        regs[d] = memory.get(addr, default)
    return op


def _load_offset(regs, memory, d, a, offset, default):
    def op():
        addr = regs[a] + offset
        if not isinstance(addr, int):
            raise _bad_address(addr)
        regs[d] = memory.get(addr, default)
    return op


def _load_slot(regs, memory, d, addr, default):
    def op():
        if not isinstance(addr, int):
            raise _bad_address(addr)
        regs[d] = memory.get(addr, default)
    return op


def _store(regs, memory, s, a):
    def op():
        addr = regs[a]
        value = regs[s]
        if not isinstance(addr, int):
            raise _bad_address(addr)
        memory[addr] = value
    return op


def _store_offset(regs, memory, s, a, offset):
    def op():
        addr = regs[a] + offset
        value = regs[s]
        if not isinstance(addr, int):
            raise _bad_address(addr)
        memory[addr] = value
    return op


def _store_slot(regs, memory, s, addr):
    def op():
        value = regs[s]
        if not isinstance(addr, int):
            raise _bad_address(addr)
        memory[addr] = value
    return op


def _out(regs, output, s):
    append = output.append

    def op():
        append(regs[s])
    return op


def _nop():
    pass


def _raise(exc: Exception):
    def op():
        raise exc
    return op


# -- terminators: each returns the next label, or None for ``ret`` ------------

def _jump(target):
    def op():
        return target
    return op


def _branch(regs, s, taken, fallthrough):
    def op():
        return taken if regs[s] != 0 else fallthrough
    return op


def _ret():
    return None


#: opcodes whose value is known when their block is decoded
_CONSTANTS = frozenset({
    Opcode.LDI, Opcode.LDF, Opcode.LFP, Opcode.LSD, Opcode.CLDW,
    Opcode.CLDF, Opcode.PARAM, Opcode.FPARAM})

#: load opcodes -> what a load of a never-stored cell reads
_LOADS = {Opcode.LDW: 0, Opcode.LDWO: 0, Opcode.SPLD: 0,
          Opcode.FLD: 0.0, Opcode.FLDO: 0.0, Opcode.FSPLD: 0.0}


def _spill_addr(slot: int) -> int:
    return FP_BASE - WORD * (slot + 1)


class _Block:
    """One block decoded for the current run."""

    __slots__ = ("body", "exit", "size", "opcodes", "hits")

    def __init__(self, body: list, exit, opcodes: list[Opcode]) -> None:
        #: one closure per instruction before the terminator
        self.body = body
        #: the terminator's closure (or the fall-through error)
        self.exit = exit
        #: instructions one entry executes
        self.size = len(opcodes)
        #: the executed opcodes, in order (the static histogram)
        self.opcodes = opcodes
        #: entries so far
        self.hits = 0


def _well_typed(inst: Instruction) -> bool:
    """True if *inst*'s register classes and integer immediates match its
    opcode's signature, so its result already has its destination's type."""
    info = inst.info
    return (all(r.rclass is c for r, c in zip(inst.dests, info.dests))
            and all(r.rclass is c for r, c in zip(inst.srcs, info.srcs))
            and all(isinstance(v, int)
                    for v, kind in zip(inst.imms, info.imms)
                    if kind is ImmKind.INT))


class Interpreter:
    """Executes one function.

    Parameters:
        fn: the function to run (virtual or physical registers — any
            well-formed ILOC works).
        args: integer/float arguments read by ``param``/``fparam``.
        const_pool: mapping offset -> value backing ``cldw``/``cldf``.
        max_steps: dynamic instruction budget before
            :class:`InterpreterError`.
    """

    def __init__(self, fn: Function, args: list | None = None,
                 const_pool: dict[int, object] | None = None,
                 max_steps: int = 50_000_000) -> None:
        self.fn = fn
        self.args = list(args or [])
        self.const_pool = dict(const_pool or {})
        self.max_steps = max_steps
        self.memory: dict[int, object] = {}
        self.output: list = []
        #: the register file: slot -> value
        self._regs: dict[int, object] = {}
        #: register -> slot, and slot -> register for error messages
        self._slots: dict[Reg, int] = {}
        self._slot_regs: list[Reg] = []

    # -- execution ------------------------------------------------------------

    def run(self) -> RunResult:
        """Execute from the entry block until ``ret``."""
        fn, max_steps = self.fn, self.max_steps
        blocks: dict[str, _Block] = {}  # decoded so far, in first-visit order
        steps = 0
        label = fn.entry.label
        while label is not None:
            blk = blocks.get(label)
            if blk is None:
                blk = blocks[label] = self._decode(fn.block(label))
            steps += blk.size
            blk.hits += 1
            try:
                if steps > max_steps:
                    for op in blk.body[:max_steps - steps + blk.size]:
                        op()
                    raise InterpreterError(
                        f"exceeded {max_steps} steps in {fn.name}")
                for op in blk.body:
                    op()
                label = blk.exit()
            except KeyError as exc:
                reg = self._register_of(exc)
                if reg is None:
                    raise
                raise UninitializedRegister(
                    f"read of uninitialized register {reg}") from None

        counts: dict[CountClass, int] = {}
        opcode_counts: dict[Opcode, int] = {}
        for blk in blocks.values():
            for opcode in blk.opcodes:
                cls = opcode.info.count_class
                counts[cls] = counts.get(cls, 0) + blk.hits
                opcode_counts[opcode] = (opcode_counts.get(opcode, 0)
                                         + blk.hits)
        return RunResult(output=self.output, counts=counts,
                         opcode_counts=opcode_counts, steps=steps,
                         memory=self.memory)

    def _register_of(self, exc: KeyError) -> Reg | None:
        """The register whose missing slot raised *exc*, if it was one."""
        slot = exc.args[0] if exc.args else None
        if type(slot) is int and 0 <= slot < len(self._slot_regs):
            return self._slot_regs[slot]
        return None

    # -- decoding -------------------------------------------------------------

    def _slot(self, reg: Reg) -> int:
        slot = self._slots.get(reg)
        if slot is None:
            slot = self._slots[reg] = len(self._slot_regs)
            self._slot_regs.append(reg)
        return slot

    def _decode(self, block: BasicBlock) -> _Block:
        """Decode *block* up to and including its first terminator."""
        body: list = []
        opcodes: list[Opcode] = []
        for inst in block.instructions:
            opcodes.append(inst.opcode)
            try:
                op = self._decode_instruction(inst)
            except Exception as exc:
                # whatever executing the instruction would raise (a bad
                # constant, argument or operand) waits for its turn, so
                # earlier instructions and the step budget fail first
                op = _raise(exc)
            if inst.info.is_terminator:
                return _Block(body, op, opcodes)
            body.append(op)
        return _Block(body, _raise(InterpreterError(
            f"block {block.label} fell through without terminator")),
            opcodes)

    def _decode_instruction(self, inst: Instruction):
        """The closure executing *inst*, or raise what executing it would."""
        op, info = inst.opcode, inst.info
        regs, memory, slot = self._regs, self.memory, self._slot
        compute = _COMPUTE.get(op)
        if compute is not None:
            dest = inst.dest
            if len(info.srcs) == 1:
                operands = [slot(inst.src)]
            else:
                operands = [slot(inst.srcs[0]), slot(inst.srcs[1])]
            if info.imms:
                operands.append(inst.imms[0])
            if _well_typed(inst):
                return compute(regs, slot(dest), *operands)
            return _checked(compute(regs, _SCRATCH, *operands), regs,
                            slot(dest), dest)
        if op in _CONSTANTS:
            value = self._constant(inst)
            return _set(regs, slot(inst.dest), _written(inst.dest, value))
        if op in _LOADS:
            dest, default = inst.dest, _LOADS[op]
            if op in (Opcode.LDW, Opcode.FLD):
                load = _load(regs, memory, _SCRATCH, slot(inst.src), default)
            elif op in (Opcode.LDWO, Opcode.FLDO):
                load = _load_offset(regs, memory, _SCRATCH, slot(inst.src),
                                    inst.imms[0], default)
            else:
                load = _load_slot(regs, memory, _SCRATCH,
                                  _spill_addr(inst.imms[0]), default)
            return _checked(load, regs, slot(dest), dest)
        if op in (Opcode.STW, Opcode.FST):
            return _store(regs, memory, slot(inst.srcs[0]),
                          slot(inst.srcs[1]))
        if op in (Opcode.STWO, Opcode.FSTO):
            return _store_offset(regs, memory, slot(inst.srcs[0]),
                                 slot(inst.srcs[1]), inst.imms[0])
        if op in (Opcode.SPST, Opcode.FSPST):
            return _store_slot(regs, memory, slot(inst.src),
                               _spill_addr(inst.imms[0]))
        if op in (Opcode.OUT, Opcode.FOUT):
            return _out(regs, self.output, slot(inst.src))
        if op is Opcode.JMP:
            return _jump(inst.labels[0])
        if op is Opcode.CBR:
            return _branch(regs, slot(inst.src), inst.labels[0],
                           inst.labels[1])
        if op is Opcode.RET:
            return _ret
        if op is Opcode.NOP:
            return _nop
        if op is Opcode.PHI:
            raise InterpreterError("phi reached the interpreter")
        raise InterpreterError(f"unimplemented opcode {op}")

    def _constant(self, inst: Instruction):
        """The value a constant-producing instruction writes."""
        op, imm = inst.opcode, inst.imms[0]
        if op is Opcode.LDI:
            return imm
        if op is Opcode.LDF:
            return float(imm)
        if op is Opcode.LFP:
            return FP_BASE + imm
        if op is Opcode.LSD:
            return SD_BASE + imm
        if op is Opcode.CLDW:
            value = self.const_pool.get(imm, 0)
            if not isinstance(value, int):
                raise InterpreterError(f"cldw of non-int constant at {imm}")
            return value
        if op is Opcode.CLDF:
            return float(self.const_pool.get(imm, 0.0))
        if imm >= len(self.args):
            raise InterpreterError(f"missing argument {imm}")
        value = self.args[imm]
        if op is Opcode.PARAM:
            if not isinstance(value, int):
                raise InterpreterError(f"argument {imm} is not int")
            return value
        return float(value)


def run_function(fn: Function, args: list | None = None,
                 const_pool: dict[int, object] | None = None,
                 max_steps: int = 50_000_000) -> RunResult:
    """Convenience wrapper: interpret *fn* and return the result."""
    return Interpreter(fn, args=args, const_pool=const_pool,
                       max_steps=max_steps).run()
