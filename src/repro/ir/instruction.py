"""Registers and instructions of the ILOC-like IR."""

from __future__ import annotations

from typing import Iterable, Union

from .opcodes import ImmKind, Opcode, OpcodeInfo, RegClass

Immediate = Union[int, float]

# A register's int value: 1<<42 | is_int<<41 | physical<<40 | index.  The
# constant top bit keeps every register away from 0 and from any small int
# (immediates, dense ids), and the field order makes int order equal
# ``sort_key`` order.
_INDEX_BITS = 40
_INDEX_MASK = (1 << _INDEX_BITS) - 1
_PHYSICAL_BIT = 1 << _INDEX_BITS
_INT_BIT = 1 << (_INDEX_BITS + 1)
_BASE = 1 << (_INDEX_BITS + 2)


class Reg(int):
    """A register operand.

    Before allocation all registers are *virtual* (an unbounded namespace);
    after allocation they are *physical* (indices into the machine's register
    file).  Integer and float registers live in disjoint namespaces.

    A register is an ``int`` whose value encodes its three fields, so
    hashing, equality and ordering run in C: every allocator phase keys
    dicts and sets by register.  The value sorts like :meth:`sort_key`, is
    never 0 and never equals a small int.  ``rclass`` and ``physical`` are
    class attributes of four private kind subclasses, so instances carry
    no ``__dict__``.
    """

    __slots__ = ()

    rclass: RegClass
    physical: bool
    _prefix: str
    _code: int

    def __new__(cls, rclass: RegClass, index: int,
                physical: bool = False) -> "Reg":
        if not 0 <= index <= _INDEX_MASK:
            raise ValueError(f"register index {index!r} out of range")
        if rclass is RegClass.INT:
            kind = _PhysicalInt if physical else _VirtualInt
        elif rclass is RegClass.FLOAT:
            kind = _PhysicalFloat if physical else _VirtualFloat
        else:
            raise ValueError(f"not a register class: {rclass!r}")
        return int.__new__(kind, kind._code | index)

    index = property(_INDEX_MASK.__rand__,
                     doc="The register's number within its namespace.")

    def sort_key(self) -> tuple:
        return (self.rclass.value, self.physical, self.index)

    def __reduce__(self) -> tuple:
        return (Reg, (self.rclass, self & _INDEX_MASK, self.physical))

    # an int format spec would print the encoded value, not the register
    __format__ = object.__format__

    def __str__(self) -> str:
        return f"{self._prefix}{self & _INDEX_MASK}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Reg({self})"

    @staticmethod
    def vint(index: int) -> "Reg":
        """A virtual integer register."""
        return Reg(RegClass.INT, index)

    @staticmethod
    def vfloat(index: int) -> "Reg":
        """A virtual float register."""
        return Reg(RegClass.FLOAT, index)

    @staticmethod
    def pint(index: int) -> "Reg":
        """A physical integer register."""
        return Reg(RegClass.INT, index, physical=True)

    @staticmethod
    def pfloat(index: int) -> "Reg":
        """A physical float register."""
        return Reg(RegClass.FLOAT, index, physical=True)


class _VirtualInt(Reg):
    __slots__ = ()
    rclass, physical, _prefix = RegClass.INT, False, "r"
    _code = _BASE | _INT_BIT


class _VirtualFloat(Reg):
    __slots__ = ()
    rclass, physical, _prefix = RegClass.FLOAT, False, "f"
    _code = _BASE


class _PhysicalInt(Reg):
    __slots__ = ()
    rclass, physical, _prefix = RegClass.INT, True, "R"
    _code = _BASE | _INT_BIT | _PHYSICAL_BIT


class _PhysicalFloat(Reg):
    __slots__ = ()
    rclass, physical, _prefix = RegClass.FLOAT, True, "F"
    _code = _BASE | _PHYSICAL_BIT


class Instruction:
    """One ILOC instruction: an opcode plus operands.

    Operands are split by kind: destination registers, source registers,
    immediates and branch labels.  The split mirrors the opcode signature in
    :class:`~repro.ir.opcodes.OpcodeInfo`; :meth:`validate` checks the match.

    Instructions are mutable (the allocator rewrites registers in place), but
    operand tuples are replaced wholesale which keeps accidental aliasing
    away.
    """

    __slots__ = ("opcode", "dests", "srcs", "imms", "labels")

    def __init__(
        self,
        opcode: Opcode,
        dests: Iterable[Reg] = (),
        srcs: Iterable[Reg] = (),
        imms: Iterable[Immediate] = (),
        labels: Iterable[str] = (),
    ) -> None:
        self.opcode = opcode
        self.dests: tuple[Reg, ...] = tuple(dests)
        self.srcs: tuple[Reg, ...] = tuple(srcs)
        self.imms: tuple[Immediate, ...] = tuple(imms)
        self.labels: tuple[str, ...] = tuple(labels)

    # -- structural helpers ---------------------------------------------------

    @property
    def info(self) -> OpcodeInfo:
        return self.opcode.info

    @property
    def is_terminator(self) -> bool:
        return self.opcode.info.is_terminator

    @property
    def is_copy(self) -> bool:
        """True for plain copies *and* splits."""
        return self.opcode.info.is_copy

    @property
    def is_split(self) -> bool:
        return self.opcode.info.is_split

    @property
    def is_never_killed(self) -> bool:
        return self.opcode.info.never_killed

    @property
    def dest(self) -> Reg:
        """The single destination (raises if there is not exactly one)."""
        (d,) = self.dests
        return d

    @property
    def src(self) -> Reg:
        """The single source (raises if there is not exactly one)."""
        (s,) = self.srcs
        return s

    def regs(self) -> tuple[Reg, ...]:
        """All register operands, destinations first."""
        return self.dests + self.srcs

    def remat_key(self) -> tuple:
        """Identity of a never-killed computation: ``(opcode, imms)``.

        Two never-killed instructions compute the same value exactly when
        their keys are equal (the operand-by-operand comparison of the
        paper's modified meet, Section 3.2; register sources never occur on
        never-killed opcodes in this encoding).
        """
        if not self.is_never_killed:
            raise ValueError(f"{self} is not never-killed")
        return (self.opcode, self.imms)

    # -- rewriting -------------------------------------------------------------

    def rewrite_regs(self, mapping: dict[Reg, Reg]) -> None:
        """Replace register operands in place according to *mapping*.

        Registers absent from *mapping* are left untouched.
        """
        self.dests = tuple(mapping.get(r, r) for r in self.dests)
        self.srcs = tuple(mapping.get(r, r) for r in self.srcs)

    def copy(self) -> "Instruction":
        """A shallow clone of this instruction."""
        return Instruction(self.opcode, self.dests, self.srcs, self.imms,
                           self.labels)

    def with_labels(self, labels: Iterable[str]) -> "Instruction":
        """A clone with different branch labels."""
        return Instruction(self.opcode, self.dests, self.srcs, self.imms,
                           labels)

    # -- validation -------------------------------------------------------------

    def validate(self) -> None:
        """Raise ``ValueError`` if operands do not match the opcode signature."""
        info = self.info
        if self.opcode is Opcode.PHI:
            # PHI is a pseudo-op with a free-form signature: one dest, any
            # number of sources (one per predecessor), no imms/labels here.
            if len(self.dests) != 1 or self.imms or self.labels:
                raise ValueError(f"malformed phi: {self}")
            for s in self.srcs:
                if s.rclass is not self.dest.rclass:
                    raise ValueError(f"phi operand class mismatch: {self}")
            return
        if len(self.dests) != len(info.dests):
            raise ValueError(
                f"{info.mnemonic}: expected {len(info.dests)} dests, "
                f"got {len(self.dests)}")
        if len(self.srcs) != len(info.srcs):
            raise ValueError(
                f"{info.mnemonic}: expected {len(info.srcs)} srcs, "
                f"got {len(self.srcs)}")
        if len(self.imms) != len(info.imms):
            raise ValueError(
                f"{info.mnemonic}: expected {len(info.imms)} imms, "
                f"got {len(self.imms)}")
        if len(self.labels) != info.n_labels:
            raise ValueError(
                f"{info.mnemonic}: expected {info.n_labels} labels, "
                f"got {len(self.labels)}")
        for reg, cls in zip(self.dests, info.dests):
            if reg.rclass is not cls:
                raise ValueError(
                    f"{info.mnemonic}: dest {reg} should be {cls.name}")
        for reg, cls in zip(self.srcs, info.srcs):
            if reg.rclass is not cls:
                raise ValueError(
                    f"{info.mnemonic}: src {reg} should be {cls.name}")
        for imm, kind in zip(self.imms, info.imms):
            if isinstance(imm, Reg):
                raise ValueError(
                    f"{info.mnemonic}: register {imm} given as an immediate")
            if kind is ImmKind.INT and not isinstance(imm, int):
                raise ValueError(
                    f"{info.mnemonic}: immediate {imm!r} should be int")
            if kind is ImmKind.FLOAT and not isinstance(imm, (int, float)):
                raise ValueError(
                    f"{info.mnemonic}: immediate {imm!r} should be float")

    # -- display ----------------------------------------------------------------

    def __str__(self) -> str:
        parts: list[str] = [self.info.mnemonic]
        operands: list[str] = [str(r) for r in self.dests]
        operands += [str(r) for r in self.srcs]
        operands += [repr(i) if isinstance(i, float) else str(i)
                     for i in self.imms]
        operands += list(self.labels)
        if operands:
            parts.append(" ".join(operands))
        return " ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Instruction {self}>"
