"""Shared fixtures and naive reference algorithms for the test suite."""

from __future__ import annotations

from repro.interp import SD_BASE
from repro.ir import (Function, ImmKind, Instruction, IRBuilder, Opcode, Reg,
                      RegClass)


def straight_line() -> Function:
    b = IRBuilder("straight")
    x = b.ldi(1)
    y = b.addi(x, 2)
    b.out(y)
    b.ret()
    return b.finish()


def diamond() -> Function:
    b = IRBuilder("diamond")
    c = b.ldi(1)
    b.cbr(c, "left", "right")
    b.label("left")
    b.jmp("join")
    b.label("right")
    b.jmp("join")
    b.label("join")
    b.ret()
    return b.finish()


def single_loop() -> Function:
    """entry -> head -> body -> head; head -> exit."""
    b = IRBuilder("loop1", n_params=1)
    n = b.param(0)
    i = b.ldi(0)
    iv = b.function.new_reg(i.rclass)
    b.copy_to(iv, i)
    b.jmp("head")
    b.label("head")
    c = b.cmp_lt(iv, n)
    b.cbr(c, "body", "exit")
    b.label("body")
    nxt = b.addi(iv, 1)
    b.copy_to(iv, nxt)
    b.jmp("head")
    b.label("exit")
    b.out(iv)
    b.ret()
    return b.finish()


def nested_loops() -> Function:
    """Two nested counted loops; inner body at depth 2."""
    b = IRBuilder("loop2", n_params=1)
    n = b.param(0)
    i = b.function.new_reg(n.rclass)
    j = b.function.new_reg(n.rclass)
    acc = b.function.new_reg(n.rclass)
    b.copy_to(i, b.ldi(0))
    b.copy_to(acc, b.ldi(0))
    b.jmp("ohead")
    b.label("ohead")
    c = b.cmp_lt(i, n)
    b.cbr(c, "oibody", "oexit")
    b.label("oibody")
    b.copy_to(j, b.ldi(0))
    b.jmp("ihead")
    b.label("ihead")
    c2 = b.cmp_lt(j, n)
    b.cbr(c2, "ibody", "iexit")
    b.label("ibody")
    b.copy_to(acc, b.add(acc, j))
    b.copy_to(j, b.addi(j, 1))
    b.jmp("ihead")
    b.label("iexit")
    b.copy_to(i, b.addi(i, 1))
    b.jmp("ohead")
    b.label("oexit")
    b.out(acc)
    b.ret()
    return b.finish()


def if_in_loop() -> Function:
    """A loop whose body contains an if/else diamond."""
    b = IRBuilder("ifloop", n_params=1)
    n = b.param(0)
    i = b.function.new_reg(n.rclass)
    acc = b.function.new_reg(n.rclass)
    b.copy_to(i, b.ldi(0))
    b.copy_to(acc, b.ldi(0))
    b.jmp("head")
    b.label("head")
    c = b.cmp_lt(i, n)
    b.cbr(c, "body", "exit")
    b.label("body")
    two = b.ldi(2)
    q = b.div(i, two)
    qq = b.mul(q, two)
    even = b.cmp_eq(qq, i)
    b.cbr(even, "then", "els")
    b.label("then")
    b.copy_to(acc, b.add(acc, i))
    b.jmp("latch")
    b.label("els")
    b.copy_to(acc, b.sub(acc, i))
    b.jmp("latch")
    b.label("latch")
    b.copy_to(i, b.addi(i, 1))
    b.jmp("head")
    b.label("exit")
    b.out(acc)
    b.ret()
    return b.finish()


def figure1_fragment() -> Function:
    """The paper's Figure 1 example: p constant in loop 1, varying in loop 2.

    ::

        p <- Label            (lsd 64 here: an address constant)
        loop1: y <- y + [p]   until y >= limit1
        loop2: p <- p + 1 ... until p >= limit2
    """
    b = IRBuilder("figure1", n_params=1)
    n = b.param(0)
    p = b.function.new_reg(n.rclass)
    y = b.function.new_reg(n.rclass)
    b.copy_to(p, b.lsd(64))
    # y starts from memory (a ⊥ value) so that, as in the paper's figure,
    # only p contains a never-killed component
    b.copy_to(y, b.ldw(b.lsd(0)))
    b.jmp("head1")
    b.label("head1")
    c1 = b.cmp_lt(y, n)
    b.cbr(c1, "body1", "head2")
    b.label("body1")
    v = b.ldw(p)
    b.copy_to(y, b.add(y, v))
    b.copy_to(y, b.addi(y, 1))
    b.jmp("head1")
    b.label("head2")
    limit = b.add(b.lsd(64), n)
    c2 = b.cmp_lt(p, limit)
    b.cbr(c2, "body2", "exit")
    b.label("body2")
    b.copy_to(p, b.addi(p, 1))
    b.jmp("head2")
    b.label("exit")
    b.out(y)
    b.out(p)
    b.ret()
    return b.finish()


ALL_SHAPES = [straight_line, diamond, single_loop, nested_loops, if_in_loop,
              figure1_fragment]


# --- naive reference algorithms ------------------------------------------------


def naive_dominators(fn: Function) -> dict[str, set[str]]:
    """O(n^2) reference: dom(b) = blocks on *every* entry->b path.

    Computed by the classic iterative set formulation.
    """
    labels = fn.reverse_postorder()
    preds = fn.predecessors_map()
    entry = labels[0]
    dom = {label: set(labels) for label in labels}
    dom[entry] = {entry}
    changed = True
    while changed:
        changed = False
        for label in labels:
            if label == entry:
                continue
            ps = [p for p in preds[label] if p in dom]
            new = set(labels)
            for p in ps:
                new &= dom[p]
            new |= {label}
            if new != dom[label]:
                dom[label] = new
                changed = True
    return dom


def naive_live_in(fn: Function) -> dict[str, set]:
    """Reference liveness: a register is live-in at B iff some path from B
    reaches a use before any def."""
    from repro.analysis import block_use_def

    labels = fn.reverse_postorder()
    summaries = {label: block_use_def(fn.block(label).instructions)
                 for label in labels}
    live_in = {label: set() for label in labels}
    changed = True
    while changed:
        changed = False
        for label in labels:
            use, defs = summaries[label]
            out = set()
            for s in fn.block(label).successors():
                out |= live_in.get(s, set())
            new = use | (out - defs)
            if new != live_in[label]:
                live_in[label] = new
                changed = True
    return live_in


#: source positions that hold an address, per opcode
_ADDRESS_SOURCES = {
    Opcode.LDW: 0, Opcode.LDWO: 0, Opcode.FLD: 0, Opcode.FLDO: 0,
    Opcode.STW: 1, Opcode.STWO: 1, Opcode.FST: 1, Opcode.FSTO: 1,
}


def single_op(opcode: Opcode, dest_classes=None, src_classes=None,
              imms=None, values=None) -> Function:
    """One *opcode* instruction built with ``Instruction(...)`` (so nothing
    validates it), its sources defined first and its destinations emitted
    by ``out``/``fout``; control opcodes branch to the ``exit`` block.

    Register classes default to the opcode's signature, immediates to 0
    (1.5 for float immediates).  Source *i* holds ``values[i]`` converted
    to its register's class; by default an address operand holds
    :data:`SD_BASE` and any other source 3."""
    info = opcode.info
    dest_classes = info.dests if dest_classes is None else dest_classes
    src_classes = info.srcs if src_classes is None else src_classes
    if imms is None:
        imms = [0 if kind is ImmKind.INT else 1.5 for kind in info.imms]
    fn = Function("single")
    entry, done = fn.add_block("entry"), fn.add_block("exit")
    srcs = []
    for i, cls in enumerate(src_classes):
        reg = Reg(cls, 10 + i)
        if values is not None:
            value = values[i]
        else:
            value = SD_BASE if _ADDRESS_SOURCES.get(opcode) == i else 3
        if cls is RegClass.INT:
            entry.append(Instruction(Opcode.LDI, [reg], imms=[int(value)]))
        else:
            entry.append(Instruction(Opcode.LDF, [reg],
                                     imms=[float(value)]))
        srcs.append(reg)
    dests = [Reg(cls, 20 + i) for i, cls in enumerate(dest_classes)]
    entry.append(Instruction(opcode, dests, srcs, imms,
                             ["exit"] * info.n_labels))
    for reg in dests:
        entry.append(Instruction(
            Opcode.OUT if reg.rclass is RegClass.INT else Opcode.FOUT,
            srcs=[reg]))
    if not info.is_terminator:
        entry.append(Instruction(Opcode.JMP, labels=["exit"]))
    done.append(Instruction(Opcode.RET))
    return fn
