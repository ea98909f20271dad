"""Opcode definitions for the ILOC-like intermediate language.

The instruction set follows the flavor of ILOC as used by Briggs, Cooper and
Torczon: a low-level, register-to-register code with explicit loads and
stores, immediate forms, and simple two-way conditional branches.  Each
opcode carries the metadata the rest of the system needs:

* its operand *signature* (register classes of destinations and sources,
  kinds of immediates, number of branch labels),
* whether it is *never-killed* in Chaitin's sense — recomputable anywhere in
  the procedure from operands that are always available (Section 3 of the
  paper),
* the *instrumentation class* used by the dynamic counters that reproduce the
  paper's Table 1 columns (``load``, ``store``, ``copy``, ``ldi``, ``addi``,
  ``other``),
* its cycle cost under the paper's simple model (loads and stores cost two
  cycles, everything else one — Section 5.1).

Never-killed opcodes in this encoding take no register sources; the frame
pointer and static-data pointer are implicit in ``LFP``/``LSD``/``CLDW``/
``CLDF``/``SPLD``/``SPST``, which keeps the "operands always available"
requirement true by construction and makes tag equality a comparison of
``(opcode, immediates)``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class RegClass(enum.Enum):
    """Register class: integer or floating point.

    The paper's target machine has sixteen integer and sixteen floating-point
    registers; the classes never interfere with each other.
    """

    INT = "r"
    FLOAT = "f"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RegClass.{self.name}"


class CountClass(enum.Enum):
    """Instrumentation classes matching the columns of the paper's Table 1."""

    LOAD = "load"
    STORE = "store"
    COPY = "copy"
    LDI = "ldi"
    ADDI = "addi"
    OTHER = "other"


class ImmKind(enum.Enum):
    """Kinds of immediate operands an opcode may carry."""

    INT = "int"
    FLOAT = "float"


@dataclass(frozen=True)
class OpcodeInfo:
    """Static description of one opcode."""

    mnemonic: str
    dests: tuple[RegClass, ...] = ()
    srcs: tuple[RegClass, ...] = ()
    imms: tuple[ImmKind, ...] = ()
    n_labels: int = 0
    never_killed: bool = False
    count_class: CountClass = CountClass.OTHER
    is_terminator: bool = False
    has_side_effects: bool = False
    is_copy: bool = False
    is_split: bool = False
    commutative: bool = False

    @property
    def cost(self) -> int:
        """Cycle cost under the paper's model: loads/stores 2, others 1."""
        if self.count_class in (CountClass.LOAD, CountClass.STORE):
            return 2
        return 1


class Opcode(enum.Enum):
    """All opcodes of the ILOC-like IR.

    Values are :class:`OpcodeInfo` records; use :attr:`Opcode.info` to
    access them.  ``info`` and ``mnemonic`` are plain member attributes,
    not properties over ``Enum.value``, because the allocator and the
    interpreter read them on every instruction.
    """

    info: OpcodeInfo
    mnemonic: str

    def __init__(self, info: OpcodeInfo) -> None:
        self.info = info
        self.mnemonic = info.mnemonic

    # --- never-killed definitions (Section 3 of the paper) -----------------
    #: load integer immediate: ``ldi rD, imm``
    LDI = OpcodeInfo("ldi", dests=(RegClass.INT,), imms=(ImmKind.INT,),
                     never_killed=True, count_class=CountClass.LDI)
    #: load float immediate: ``ldf fD, imm``
    LDF = OpcodeInfo("ldf", dests=(RegClass.FLOAT,), imms=(ImmKind.FLOAT,),
                     never_killed=True, count_class=CountClass.LDI)
    #: frame-pointer offset: ``lfp rD, imm``  (rD = FP + imm)
    LFP = OpcodeInfo("lfp", dests=(RegClass.INT,), imms=(ImmKind.INT,),
                     never_killed=True, count_class=CountClass.ADDI)
    #: static-data offset: ``lsd rD, imm``  (rD = SD + imm)
    LSD = OpcodeInfo("lsd", dests=(RegClass.INT,), imms=(ImmKind.INT,),
                     never_killed=True, count_class=CountClass.ADDI)
    #: load int from a known-constant static location: ``cldw rD, imm``
    CLDW = OpcodeInfo("cldw", dests=(RegClass.INT,), imms=(ImmKind.INT,),
                      never_killed=True, count_class=CountClass.LOAD)
    #: load float from a known-constant static location: ``cldf fD, imm``
    CLDF = OpcodeInfo("cldf", dests=(RegClass.FLOAT,), imms=(ImmKind.INT,),
                      never_killed=True, count_class=CountClass.LOAD)
    #: read incoming integer parameter from its frame home: ``param rD, idx``
    PARAM = OpcodeInfo("param", dests=(RegClass.INT,), imms=(ImmKind.INT,),
                       never_killed=True, count_class=CountClass.LOAD)
    #: read incoming float parameter from its frame home: ``fparam fD, idx``
    FPARAM = OpcodeInfo("fparam", dests=(RegClass.FLOAT,), imms=(ImmKind.INT,),
                        never_killed=True, count_class=CountClass.LOAD)

    # --- integer arithmetic -------------------------------------------------
    ADD = OpcodeInfo("add", dests=(RegClass.INT,),
                     srcs=(RegClass.INT, RegClass.INT), commutative=True)
    SUB = OpcodeInfo("sub", dests=(RegClass.INT,),
                     srcs=(RegClass.INT, RegClass.INT))
    MUL = OpcodeInfo("mul", dests=(RegClass.INT,),
                     srcs=(RegClass.INT, RegClass.INT), commutative=True)
    DIV = OpcodeInfo("div", dests=(RegClass.INT,),
                     srcs=(RegClass.INT, RegClass.INT))
    NEG = OpcodeInfo("neg", dests=(RegClass.INT,), srcs=(RegClass.INT,))
    ADDI = OpcodeInfo("addi", dests=(RegClass.INT,), srcs=(RegClass.INT,),
                      imms=(ImmKind.INT,), count_class=CountClass.ADDI)
    SUBI = OpcodeInfo("subi", dests=(RegClass.INT,), srcs=(RegClass.INT,),
                      imms=(ImmKind.INT,), count_class=CountClass.ADDI)
    MULI = OpcodeInfo("muli", dests=(RegClass.INT,), srcs=(RegClass.INT,),
                      imms=(ImmKind.INT,), count_class=CountClass.ADDI)

    # --- integer comparisons (result is 0/1 in an int register) ------------
    CMP_LT = OpcodeInfo("cmp_lt", dests=(RegClass.INT,),
                        srcs=(RegClass.INT, RegClass.INT))
    CMP_LE = OpcodeInfo("cmp_le", dests=(RegClass.INT,),
                        srcs=(RegClass.INT, RegClass.INT))
    CMP_GT = OpcodeInfo("cmp_gt", dests=(RegClass.INT,),
                        srcs=(RegClass.INT, RegClass.INT))
    CMP_GE = OpcodeInfo("cmp_ge", dests=(RegClass.INT,),
                        srcs=(RegClass.INT, RegClass.INT))
    CMP_EQ = OpcodeInfo("cmp_eq", dests=(RegClass.INT,),
                        srcs=(RegClass.INT, RegClass.INT), commutative=True)
    CMP_NE = OpcodeInfo("cmp_ne", dests=(RegClass.INT,),
                        srcs=(RegClass.INT, RegClass.INT), commutative=True)

    # --- float arithmetic ---------------------------------------------------
    FADD = OpcodeInfo("fadd", dests=(RegClass.FLOAT,),
                      srcs=(RegClass.FLOAT, RegClass.FLOAT), commutative=True)
    FSUB = OpcodeInfo("fsub", dests=(RegClass.FLOAT,),
                      srcs=(RegClass.FLOAT, RegClass.FLOAT))
    FMUL = OpcodeInfo("fmul", dests=(RegClass.FLOAT,),
                      srcs=(RegClass.FLOAT, RegClass.FLOAT), commutative=True)
    FDIV = OpcodeInfo("fdiv", dests=(RegClass.FLOAT,),
                      srcs=(RegClass.FLOAT, RegClass.FLOAT))
    FABS = OpcodeInfo("fabs", dests=(RegClass.FLOAT,), srcs=(RegClass.FLOAT,))
    FNEG = OpcodeInfo("fneg", dests=(RegClass.FLOAT,), srcs=(RegClass.FLOAT,))

    # --- float comparisons (int 0/1 result) ---------------------------------
    FCMP_LT = OpcodeInfo("fcmp_lt", dests=(RegClass.INT,),
                         srcs=(RegClass.FLOAT, RegClass.FLOAT))
    FCMP_LE = OpcodeInfo("fcmp_le", dests=(RegClass.INT,),
                         srcs=(RegClass.FLOAT, RegClass.FLOAT))
    FCMP_GT = OpcodeInfo("fcmp_gt", dests=(RegClass.INT,),
                         srcs=(RegClass.FLOAT, RegClass.FLOAT))
    FCMP_GE = OpcodeInfo("fcmp_ge", dests=(RegClass.INT,),
                         srcs=(RegClass.FLOAT, RegClass.FLOAT))
    FCMP_EQ = OpcodeInfo("fcmp_eq", dests=(RegClass.INT,),
                         srcs=(RegClass.FLOAT, RegClass.FLOAT))
    FCMP_NE = OpcodeInfo("fcmp_ne", dests=(RegClass.INT,),
                         srcs=(RegClass.FLOAT, RegClass.FLOAT))

    # --- conversions ---------------------------------------------------------
    I2F = OpcodeInfo("i2f", dests=(RegClass.FLOAT,), srcs=(RegClass.INT,))
    F2I = OpcodeInfo("f2i", dests=(RegClass.INT,), srcs=(RegClass.FLOAT,))

    # --- memory --------------------------------------------------------------
    #: load int: ``ldw rD, rA``  (rD = mem[rA])
    LDW = OpcodeInfo("ldw", dests=(RegClass.INT,), srcs=(RegClass.INT,),
                     count_class=CountClass.LOAD)
    #: load int with offset: ``ldwo rD, rA, imm``  (rD = mem[rA + imm])
    LDWO = OpcodeInfo("ldwo", dests=(RegClass.INT,), srcs=(RegClass.INT,),
                      imms=(ImmKind.INT,), count_class=CountClass.LOAD)
    #: store int: ``stw rS, rA``  (mem[rA] = rS)
    STW = OpcodeInfo("stw", srcs=(RegClass.INT, RegClass.INT),
                     count_class=CountClass.STORE, has_side_effects=True)
    #: store int with offset: ``stwo rS, rA, imm``  (mem[rA + imm] = rS)
    STWO = OpcodeInfo("stwo", srcs=(RegClass.INT, RegClass.INT),
                      imms=(ImmKind.INT,),
                      count_class=CountClass.STORE, has_side_effects=True)
    #: load float: ``fld fD, rA``
    FLD = OpcodeInfo("fld", dests=(RegClass.FLOAT,), srcs=(RegClass.INT,),
                     count_class=CountClass.LOAD)
    #: load float with offset: ``fldo fD, rA, imm``
    FLDO = OpcodeInfo("fldo", dests=(RegClass.FLOAT,), srcs=(RegClass.INT,),
                      imms=(ImmKind.INT,), count_class=CountClass.LOAD)
    #: store float: ``fst fS, rA``
    FST = OpcodeInfo("fst", srcs=(RegClass.FLOAT, RegClass.INT),
                     count_class=CountClass.STORE, has_side_effects=True)
    #: store float with offset: ``fsto fS, rA, imm``
    FSTO = OpcodeInfo("fsto", srcs=(RegClass.FLOAT, RegClass.INT),
                      imms=(ImmKind.INT,),
                      count_class=CountClass.STORE, has_side_effects=True)

    # --- spill code (frame slots; FP implicit) -------------------------------
    #: reload an int spill slot: ``spld rD, slot``
    SPLD = OpcodeInfo("spld", dests=(RegClass.INT,), imms=(ImmKind.INT,),
                      count_class=CountClass.LOAD)
    #: store to an int spill slot: ``spst rS, slot``
    SPST = OpcodeInfo("spst", srcs=(RegClass.INT,), imms=(ImmKind.INT,),
                      count_class=CountClass.STORE, has_side_effects=True)
    #: reload a float spill slot: ``fspld fD, slot``
    FSPLD = OpcodeInfo("fspld", dests=(RegClass.FLOAT,), imms=(ImmKind.INT,),
                       count_class=CountClass.LOAD)
    #: store to a float spill slot: ``fspst fS, slot``
    FSPST = OpcodeInfo("fspst", srcs=(RegClass.FLOAT,), imms=(ImmKind.INT,),
                       count_class=CountClass.STORE, has_side_effects=True)

    # --- copies --------------------------------------------------------------
    COPY = OpcodeInfo("copy", dests=(RegClass.INT,), srcs=(RegClass.INT,),
                      count_class=CountClass.COPY, is_copy=True)
    FCOPY = OpcodeInfo("fcopy", dests=(RegClass.FLOAT,), srcs=(RegClass.FLOAT,),
                       count_class=CountClass.COPY, is_copy=True)
    #: a *split* is a distinguished copy introduced by renumber (Section 4.1)
    SPLIT = OpcodeInfo("split", dests=(RegClass.INT,), srcs=(RegClass.INT,),
                       count_class=CountClass.COPY, is_copy=True,
                       is_split=True)
    FSPLIT = OpcodeInfo("fsplit", dests=(RegClass.FLOAT,),
                        srcs=(RegClass.FLOAT,),
                        count_class=CountClass.COPY, is_copy=True,
                        is_split=True)

    # --- control flow --------------------------------------------------------
    JMP = OpcodeInfo("jmp", n_labels=1, is_terminator=True,
                     has_side_effects=True)
    #: conditional branch: ``cbr rA, Ltrue, Lfalse``  (taken if rA != 0)
    CBR = OpcodeInfo("cbr", srcs=(RegClass.INT,), n_labels=2,
                     is_terminator=True, has_side_effects=True)
    RET = OpcodeInfo("ret", is_terminator=True, has_side_effects=True)

    # --- observable output (used by the interpreter-based experiments) ------
    OUT = OpcodeInfo("out", srcs=(RegClass.INT,), has_side_effects=True)
    FOUT = OpcodeInfo("fout", srcs=(RegClass.FLOAT,), has_side_effects=True)

    NOP = OpcodeInfo("nop")

    # --- SSA pseudo-instruction (only present inside renumber) --------------
    PHI = OpcodeInfo("phi", has_side_effects=False)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Opcode.{self.name}"


#: map mnemonic -> Opcode, used by the textual parser
MNEMONIC_TO_OPCODE: dict[str, Opcode] = {op.mnemonic: op for op in Opcode}

#: opcodes that are never-killed in Chaitin's sense
NEVER_KILLED: frozenset[Opcode] = frozenset(
    op for op in Opcode if op.info.never_killed
)


def count_class_of(op: Opcode) -> CountClass:
    """Instrumentation class of *op* (the Table 1 column it lands in)."""
    return op.info.count_class


def cycle_cost_of(op: Opcode) -> int:
    """Cycle cost of *op* under the paper's model (Section 5.1)."""
    return op.info.cost
