"""The seed's set-based liveness, interference-graph and interpreter
implementations, kept verbatim as reference oracles.

The production code in :mod:`repro.analysis.liveness` and
:mod:`repro.regalloc.interference` runs on dense int bitsets; the
equivalence property tests (and ``benchmarks/bench_build_scaling.py``)
check it against — and time it against — these originals.

:func:`ref_simplify` and :func:`ref_select` likewise preserve the
pre-incremental color phases (linear candidate rescan, per-neighbor
forbidden sets) so the scaling bench can race the current allocator
end to end against the from-scratch configuration it replaced.

:class:`RefInterpreter` is the seed's per-instruction ILOC interpreter,
the oracle for :mod:`repro.interp`'s decode-once interpreter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.interp import (FP_BASE, InterpreterError, RunResult, SD_BASE,
                          UninitializedRegister, WORD)
from repro.ir import (CountClass, Function, Instruction, Opcode, Reg,
                      RegClass)
from repro.machine import MachineDescription
from repro.obs import NULL_TRACER
from repro.regalloc.interference import InterferenceGraph
from repro.regalloc.select import SelectResult
from repro.regalloc.simplify import SimplifyResult
from repro.regalloc.spillcost import SpillCosts


@dataclass
class RefBlockLiveness:
    """use/def summaries and live-in/out sets for one block."""

    use: set[Reg]
    defs: set[Reg]
    live_in: set[Reg]
    live_out: set[Reg]


@dataclass
class RefLivenessInfo:
    """Liveness facts for one function, keyed by block label."""

    blocks: dict[str, RefBlockLiveness]

    def live_in(self, label: str) -> set[Reg]:
        return self.blocks[label].live_in

    def live_out(self, label: str) -> set[Reg]:
        return self.blocks[label].live_out


def ref_block_use_def(
        instructions: list[Instruction]) -> tuple[set[Reg], set[Reg]]:
    use: set[Reg] = set()
    defs: set[Reg] = set()
    for inst in instructions:
        for src in inst.srcs:
            if src not in defs:
                use.add(src)
        defs.update(inst.dests)
    return use, defs


def ref_compute_liveness(fn: Function) -> RefLivenessInfo:
    """The seed's set-based worklist liveness, unchanged."""
    labels = fn.reverse_postorder()
    info: dict[str, RefBlockLiveness] = {}
    for label in labels:
        use, defs = ref_block_use_def(fn.block(label).instructions)
        info[label] = RefBlockLiveness(use=use, defs=defs, live_in=set(),
                                       live_out=set())

    preds = fn.predecessors_map()
    order = list(reversed(labels))
    worklist = list(order)
    in_list = set(worklist)
    while worklist:
        label = worklist.pop()
        in_list.discard(label)
        bl = info[label]
        live_out: set[Reg] = set()
        for succ in fn.block(label).successors():
            if succ in info:
                live_out |= info[succ].live_in
        live_in = bl.use | (live_out - bl.defs)
        bl.live_out = live_out
        if live_in != bl.live_in:
            bl.live_in = live_in
            for p in preds[label]:
                if p in info and p not in in_list:
                    worklist.append(p)
                    in_list.add(p)
    return RefLivenessInfo(blocks=info)


class RefInterferenceGraph:
    """The seed's dual-representation interference graph, unchanged:
    a set of canonicalized register pairs plus per-node adjacency sets."""

    def __init__(self, nodes: list[Reg] | None = None) -> None:
        self._adj: dict[Reg, set[Reg]] = {}
        self._matrix: set[tuple[Reg, Reg]] = set()
        for node in nodes or ():
            self.add_node(node)

    def add_node(self, reg: Reg) -> None:
        self._adj.setdefault(reg, set())

    @staticmethod
    def _key(a: Reg, b: Reg) -> tuple[Reg, Reg]:
        return (a, b) if a.sort_key() <= b.sort_key() else (b, a)

    def add_edge(self, a: Reg, b: Reg) -> None:
        if a == b or a.rclass is not b.rclass:
            return
        key = self._key(a, b)
        if key in self._matrix:
            return
        self._matrix.add(key)
        self._adj.setdefault(a, set()).add(b)
        self._adj.setdefault(b, set()).add(a)

    def nodes(self) -> list[Reg]:
        return list(self._adj)

    def __contains__(self, reg: Reg) -> bool:
        return reg in self._adj

    def interferes(self, a: Reg, b: Reg) -> bool:
        return self._key(a, b) in self._matrix

    def neighbors(self, reg: Reg) -> set[Reg]:
        return self._adj[reg]

    def degree(self, reg: Reg) -> int:
        return len(self._adj[reg])

    def n_edges(self) -> int:
        return len(self._matrix)

    def merge(self, keep: Reg, gone: Reg) -> None:
        if keep.rclass is not gone.rclass:
            raise ValueError(f"cannot merge {keep} with {gone}")
        for n in list(self._adj[gone]):
            self._matrix.discard(self._key(gone, n))
            self._adj[n].discard(gone)
            self.add_edge(keep, n)
        del self._adj[gone]
        self._matrix.discard(self._key(keep, gone))

    def remove_node(self, reg: Reg) -> None:
        for n in list(self._adj[reg]):
            self._matrix.discard(self._key(reg, n))
            self._adj[n].discard(reg)
        del self._adj[reg]


def ref_build_interference_graph(fn: Function) -> RefInterferenceGraph:
    """The seed's backward-scan build, unchanged (per-edge set inserts)."""
    liveness = ref_compute_liveness(fn)
    graph = RefInterferenceGraph()
    for _blk, inst in fn.instructions():
        for r in inst.regs():
            graph.add_node(r)

    for blk in fn.blocks:
        live: set[Reg] = set(liveness.live_out(blk.label))
        for inst in reversed(blk.instructions):
            src_exempt = inst.src if inst.is_copy else None
            for d in inst.dests:
                for l in live:
                    if l is not d and l != src_exempt:
                        graph.add_edge(d, l)
            live.difference_update(inst.dests)
            live.update(inst.srcs)
    return graph


# -- pre-incremental color phases, kept verbatim ----------------------------


def ref_simplify(graph: InterferenceGraph, machine: MachineDescription,
                 costs: SpillCosts, optimistic: bool = True,
                 tracer=NULL_TRACER) -> SimplifyResult:
    """The pre-heap simplify: linear rescan of the live nodes for every
    spill-candidate choice (``O(candidates * live nodes)``)."""
    degree: dict[Reg, int] = {n: graph.degree(n) for n in graph.nodes()}
    alive: dict[Reg, None] = dict.fromkeys(degree)
    stack: list[Reg] = []
    candidates: set[Reg] = set()
    pessimistic_spills: list[Reg] = []
    index = graph.index

    def k_of(reg: Reg) -> int:
        return machine.k(reg.rclass)

    worklist = [n for n in degree if degree[n] < k_of(n)]

    def remove(node: Reg, push: bool = True) -> None:
        del alive[node]
        if push:
            stack.append(node)
        for n in index.iter_regs(graph.neighbor_bits(node)):
            if n not in alive:
                continue
            degree[n] -= 1
            if degree[n] == k_of(n) - 1:
                worklist.append(n)

    while alive:
        while worklist:
            node = worklist.pop()
            if node in alive and degree[node] < k_of(node):
                remove(node)
        if not alive:
            break
        candidate = _ref_pick_spill_candidate(degree, alive, costs)
        if candidate is None:
            break
        candidates.add(candidate)
        if optimistic:
            remove(candidate)
        else:
            pessimistic_spills.append(candidate)
            remove(candidate, push=False)
    return SimplifyResult(stack=stack, candidates=candidates,
                          pessimistic_spills=pessimistic_spills)


def _ref_pick_spill_candidate(degree: dict[Reg, int],
                              alive: dict[Reg, None],
                              costs: SpillCosts) -> Reg | None:
    best: Reg | None = None
    best_ratio = math.inf
    fallback: Reg | None = None
    for node in alive:
        deg = degree[node]
        cost = costs.cost.get(node, math.inf)
        if math.isinf(cost):
            if fallback is None:
                fallback = node
            continue
        ratio = cost / max(deg, 1)
        if ratio < best_ratio or (ratio == best_ratio and best is not None
                                  and node.sort_key() < best.sort_key()):
            best, best_ratio = node, ratio
    return best if best is not None else fallback


def ref_select(graph: InterferenceGraph, order: SimplifyResult,
               machine: MachineDescription,
               partners: dict[Reg, set[Reg]] | None = None,
               lookahead: bool = True, tracer=NULL_TRACER) -> SelectResult:
    """The pre-bitset select: a forbidden *set* built per node from a
    neighbor walk, and lookahead recomputing every uncolored partner's
    forbidden set once per trial color."""
    partners = partners or {}
    result = SelectResult()
    coloring = result.coloring

    index = graph.index
    for node in reversed(order.stack):
        k = machine.k(node.rclass)
        forbidden = {coloring[n]
                     for n in index.iter_regs(graph.neighbor_bits(node))
                     if n in coloring}
        available = [c for c in range(k) if c not in forbidden]
        if not available:
            result.spilled.append(node)
            continue
        color, _because = _ref_choose_color(node, available, graph,
                                            coloring, partners, lookahead)
        coloring[node] = color
    return result


def _ref_choose_color(node: Reg, available: list[int],
                      graph: InterferenceGraph, coloring: dict[Reg, int],
                      partners: dict[Reg, set[Reg]],
                      lookahead: bool) -> tuple[int, str]:
    mates = sorted(partners.get(node, ()), key=lambda r: r.sort_key())
    for mate in mates:
        c = coloring.get(mate)
        if c is not None and c in available:
            return c, "biased-partner"
    if lookahead and mates:
        uncolored = [m for m in mates if m not in coloring and m in graph]
        best_color = None
        best_score = -1
        index = graph.index
        for c in available:
            score = 0
            for mate in uncolored:
                mate_forbidden = {
                    coloring[n]
                    for n in index.iter_regs(graph.neighbor_bits(mate))
                    if n in coloring}
                if c not in mate_forbidden:
                    score += 1
            if score > best_score:
                best_color, best_score = c, score
        if best_color is not None:
            return best_color, "lookahead"
    return available[0], "first-free"


def ref_block_maxlive(fn: Function) -> dict[str, dict]:
    """Brute-force per-block MAXLIVE oracle for
    :func:`repro.regalloc.compute_block_maxlive`.

    Enumerates every pressure point of every block explicitly with the
    set-based reference liveness — entry, live-before each instruction
    (rebuilt by an independent backward walk from ``live_out``), and
    each definition point (destinations counted against the live-after
    set) — and takes the per-class maximum of plain ``len``-style set
    counting.  No bitsets, no shared scan helpers.
    """
    live = ref_compute_liveness(fn)
    result: dict[str, dict] = {}
    for blk in fn.blocks:
        insts = blk.instructions
        after: set[Reg] = set(live.blocks[blk.label].live_out)
        befores: list[set[Reg]] = []
        afters: list[set[Reg]] = []
        for inst in reversed(insts):
            afters.append(set(after))
            after = (after - set(inst.dests)) | set(inst.srcs)
            befores.append(set(after))
        befores.reverse()
        afters.reverse()

        points: list[set[Reg]] = [set(live.blocks[blk.label].live_in)]
        for inst, before, inst_after in zip(insts, befores, afters):
            points.append(before)
            if inst.dests:
                points.append(inst_after | set(inst.dests))

        result[blk.label] = {
            cls: max((sum(1 for r in point if r.rclass is cls)
                      for point in points), default=0)
            for cls in (RegClass.INT, RegClass.FLOAT)}
    return result


# -- the seed interpreter, kept verbatim ---------------------------------------
#
# The production interpreter in :mod:`repro.interp` decodes each block once
# into pre-bound closures and counts per block; this is the per-instruction
# ``if``/``elif`` interpreter it replaced.  The equivalence tests in
# ``tests/interp/test_oracle.py`` require identical results (or the same
# exception class and message) from both, and
# ``benchmarks/bench_infrastructure.py`` races them.  The exception classes,
# :class:`RunResult` and the address constants are shared with
# :mod:`repro.interp`, so results and errors compare directly.

def _truncdiv(a: int, b: int) -> int:
    """C-style integer division (truncation toward zero)."""
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


class RefInterpreter:
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
        self.registers: dict[Reg, object] = {}
        self.memory: dict[int, object] = {}
        self.output: list = []
        self.counts: dict[CountClass, int] = {}
        self.opcode_counts: dict[Opcode, int] = {}
        self.steps = 0

    # -- register file ----------------------------------------------------------

    def _read(self, reg: Reg):
        try:
            return self.registers[reg]
        except KeyError:
            raise UninitializedRegister(
                f"read of uninitialized register {reg}") from None

    def _write(self, reg: Reg, value) -> None:
        if reg.rclass is RegClass.INT:
            if not isinstance(value, int):
                raise InterpreterError(
                    f"non-integer value {value!r} written to {reg}")
        else:
            value = float(value)
        self.registers[reg] = value

    # -- memory ------------------------------------------------------------------

    def _load(self, addr: int, rclass: RegClass):
        if not isinstance(addr, int):
            raise InterpreterError(f"non-integer address {addr!r}")
        value = self.memory.get(addr)
        if value is None:
            value = 0 if rclass is RegClass.INT else 0.0
        return value

    def _store(self, addr: int, value) -> None:
        if not isinstance(addr, int):
            raise InterpreterError(f"non-integer address {addr!r}")
        self.memory[addr] = value

    def _spill_addr(self, slot: int) -> int:
        return FP_BASE - WORD * (slot + 1)

    # -- execution -----------------------------------------------------------------

    def run(self) -> RunResult:
        """Execute from the entry block until ``ret``."""
        label = self.fn.entry.label
        while True:
            blk = self.fn.block(label)
            next_label: str | None = None
            for inst in blk.instructions:
                self.steps += 1
                if self.steps > self.max_steps:
                    raise InterpreterError(
                        f"exceeded {self.max_steps} steps in {self.fn.name}")
                cls = inst.info.count_class
                self.counts[cls] = self.counts.get(cls, 0) + 1
                self.opcode_counts[inst.opcode] = (
                    self.opcode_counts.get(inst.opcode, 0) + 1)
                next_label = self._execute(inst)
                if next_label is not None:
                    break
                if inst.opcode is Opcode.RET:
                    return RunResult(output=self.output, counts=self.counts,
                                     opcode_counts=self.opcode_counts,
                                     steps=self.steps, memory=self.memory)
            if next_label is None:
                raise InterpreterError(
                    f"block {label} fell through without terminator")
            label = next_label

    def _execute(self, inst: Instruction) -> str | None:
        """Execute one instruction; return a branch target or ``None``."""
        op = inst.opcode
        read = self._read
        if op is Opcode.LDI:
            self._write(inst.dest, inst.imms[0])
        elif op is Opcode.LDF:
            self._write(inst.dest, float(inst.imms[0]))
        elif op is Opcode.LFP:
            self._write(inst.dest, FP_BASE + inst.imms[0])
        elif op is Opcode.LSD:
            self._write(inst.dest, SD_BASE + inst.imms[0])
        elif op is Opcode.CLDW:
            value = self.const_pool.get(inst.imms[0], 0)
            if not isinstance(value, int):
                raise InterpreterError(
                    f"cldw of non-int constant at {inst.imms[0]}")
            self._write(inst.dest, value)
        elif op is Opcode.CLDF:
            value = self.const_pool.get(inst.imms[0], 0.0)
            self._write(inst.dest, float(value))
        elif op in (Opcode.PARAM, Opcode.FPARAM):
            idx = inst.imms[0]
            if idx >= len(self.args):
                raise InterpreterError(f"missing argument {idx}")
            value = self.args[idx]
            if op is Opcode.PARAM:
                if not isinstance(value, int):
                    raise InterpreterError(f"argument {idx} is not int")
                self._write(inst.dest, value)
            else:
                self._write(inst.dest, float(value))
        elif op is Opcode.ADD:
            self._write(inst.dest, read(inst.srcs[0]) + read(inst.srcs[1]))
        elif op is Opcode.SUB:
            self._write(inst.dest, read(inst.srcs[0]) - read(inst.srcs[1]))
        elif op is Opcode.MUL:
            self._write(inst.dest, read(inst.srcs[0]) * read(inst.srcs[1]))
        elif op is Opcode.DIV:
            b = read(inst.srcs[1])
            if b == 0:
                raise InterpreterError("integer division by zero")
            self._write(inst.dest, _truncdiv(read(inst.srcs[0]), b))
        elif op is Opcode.NEG:
            self._write(inst.dest, -read(inst.src))
        elif op is Opcode.ADDI:
            self._write(inst.dest, read(inst.src) + inst.imms[0])
        elif op is Opcode.SUBI:
            self._write(inst.dest, read(inst.src) - inst.imms[0])
        elif op is Opcode.MULI:
            self._write(inst.dest, read(inst.src) * inst.imms[0])
        elif op is Opcode.CMP_LT:
            self._write(inst.dest,
                        int(read(inst.srcs[0]) < read(inst.srcs[1])))
        elif op is Opcode.CMP_LE:
            self._write(inst.dest,
                        int(read(inst.srcs[0]) <= read(inst.srcs[1])))
        elif op is Opcode.CMP_GT:
            self._write(inst.dest,
                        int(read(inst.srcs[0]) > read(inst.srcs[1])))
        elif op is Opcode.CMP_GE:
            self._write(inst.dest,
                        int(read(inst.srcs[0]) >= read(inst.srcs[1])))
        elif op is Opcode.CMP_EQ:
            self._write(inst.dest,
                        int(read(inst.srcs[0]) == read(inst.srcs[1])))
        elif op is Opcode.CMP_NE:
            self._write(inst.dest,
                        int(read(inst.srcs[0]) != read(inst.srcs[1])))
        elif op is Opcode.FADD:
            self._write(inst.dest, read(inst.srcs[0]) + read(inst.srcs[1]))
        elif op is Opcode.FSUB:
            self._write(inst.dest, read(inst.srcs[0]) - read(inst.srcs[1]))
        elif op is Opcode.FMUL:
            self._write(inst.dest, read(inst.srcs[0]) * read(inst.srcs[1]))
        elif op is Opcode.FDIV:
            b = read(inst.srcs[1])
            if b == 0.0:
                raise InterpreterError("float division by zero")
            self._write(inst.dest, read(inst.srcs[0]) / b)
        elif op is Opcode.FABS:
            self._write(inst.dest, abs(read(inst.src)))
        elif op is Opcode.FNEG:
            self._write(inst.dest, -read(inst.src))
        elif op in (Opcode.FCMP_LT, Opcode.FCMP_LE, Opcode.FCMP_GT,
                    Opcode.FCMP_GE, Opcode.FCMP_EQ, Opcode.FCMP_NE):
            a, b = read(inst.srcs[0]), read(inst.srcs[1])
            result = {
                Opcode.FCMP_LT: a < b, Opcode.FCMP_LE: a <= b,
                Opcode.FCMP_GT: a > b, Opcode.FCMP_GE: a >= b,
                Opcode.FCMP_EQ: a == b, Opcode.FCMP_NE: a != b,
            }[op]
            self._write(inst.dest, int(result))
        elif op is Opcode.I2F:
            self._write(inst.dest, float(read(inst.src)))
        elif op is Opcode.F2I:
            self._write(inst.dest, int(read(inst.src)))
        elif op is Opcode.LDW:
            self._write(inst.dest, self._load(read(inst.src), RegClass.INT))
        elif op is Opcode.LDWO:
            addr = read(inst.src) + inst.imms[0]
            self._write(inst.dest, self._load(addr, RegClass.INT))
        elif op is Opcode.STW:
            self._store(read(inst.srcs[1]), read(inst.srcs[0]))
        elif op is Opcode.STWO:
            self._store(read(inst.srcs[1]) + inst.imms[0],
                        read(inst.srcs[0]))
        elif op is Opcode.FLD:
            self._write(inst.dest, self._load(read(inst.src), RegClass.FLOAT))
        elif op is Opcode.FLDO:
            addr = read(inst.src) + inst.imms[0]
            self._write(inst.dest, self._load(addr, RegClass.FLOAT))
        elif op is Opcode.FST:
            self._store(read(inst.srcs[1]), read(inst.srcs[0]))
        elif op is Opcode.FSTO:
            self._store(read(inst.srcs[1]) + inst.imms[0],
                        read(inst.srcs[0]))
        elif op is Opcode.SPLD:
            self._write(inst.dest,
                        self._load(self._spill_addr(inst.imms[0]),
                                   RegClass.INT))
        elif op is Opcode.SPST:
            self._store(self._spill_addr(inst.imms[0]), read(inst.src))
        elif op is Opcode.FSPLD:
            self._write(inst.dest,
                        self._load(self._spill_addr(inst.imms[0]),
                                   RegClass.FLOAT))
        elif op is Opcode.FSPST:
            self._store(self._spill_addr(inst.imms[0]), read(inst.src))
        elif op in (Opcode.COPY, Opcode.FCOPY, Opcode.SPLIT, Opcode.FSPLIT):
            self._write(inst.dest, read(inst.src))
        elif op is Opcode.JMP:
            return inst.labels[0]
        elif op is Opcode.CBR:
            return inst.labels[0] if read(inst.src) != 0 else inst.labels[1]
        elif op is Opcode.RET:
            return None
        elif op is Opcode.OUT:
            self.output.append(read(inst.src))
        elif op is Opcode.FOUT:
            self.output.append(read(inst.src))
        elif op is Opcode.NOP:
            pass
        elif op is Opcode.PHI:
            raise InterpreterError("phi reached the interpreter")
        else:  # pragma: no cover - the opcode table is closed
            raise InterpreterError(f"unimplemented opcode {op}")
        return None


def ref_run_function(fn: Function, args: list | None = None,
                 const_pool: dict[int, object] | None = None,
                 max_steps: int = 50_000_000) -> RunResult:
    """Convenience wrapper: interpret *fn* and return the result."""
    return RefInterpreter(fn, args=args, const_pool=const_pool,
                       max_steps=max_steps).run()
