"""Dense register indexing for bitset-backed analyses.

Chaitin's allocator numbers live ranges densely so that liveness and the
interference matrix can live in bit vectors; the sparse-analysis line of
work (Tavares et al.) makes the same move for data-flow facts.  This
module provides the Python equivalent: a :class:`RegIndex` maps every
:class:`~repro.ir.Reg` of a function to a small int, and sets of
registers become Python ints used as bitsets (``|``, ``&``, ``~`` within
the universe, population count via ``int.bit_count()``).

The index is built once per renumber round — register names only change
at renumber and at spill-code insertion, both of which start a new round
— and shared by liveness, the interference graph, and the coalesce loop
so their bitsets are directly compatible.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..ir import Function, Reg, RegClass


class RegIndex:
    """A bijection between the registers of one function and ``0..n-1``.

    Registers of the same class occupy a contiguous index range when the
    index is built with :meth:`for_function` (registers are sorted by
    class first), so per-class universes are cheap masks.  Registers may
    also be appended later with :meth:`ensure` (used by hand-built graphs
    in tests); the per-class *masks* stay exact even when the ranges stop
    being contiguous.
    """

    __slots__ = ("_ids", "_regs", "_int_mask", "_float_mask")

    def __init__(self, regs: Iterable[Reg] = ()) -> None:
        self._ids: dict[Reg, int] = {}
        self._regs: list[Reg] = []
        # one attribute per class, not a RegClass-keyed dict: a RegClass
        # key hashes through Enum.__hash__, a Python call, on every lookup
        self._int_mask = 0
        self._float_mask = 0
        for reg in regs:
            self.ensure(reg)

    @classmethod
    def for_function(cls, fn: Function) -> "RegIndex":
        """The canonical index of *fn*: every mentioned register, sorted
        (registers order like ``Reg.sort_key``, class first), for
        deterministic dense ids."""
        return cls(sorted(fn.all_regs()))

    # -- mapping ---------------------------------------------------------------

    def ensure(self, reg: Reg) -> int:
        """The id of *reg*, appending it to the universe if unseen."""
        i = self._ids.get(reg)
        if i is None:
            i = len(self._regs)
            self._ids[reg] = i
            self._regs.append(reg)
            if reg.rclass is RegClass.INT:
                self._int_mask |= 1 << i
            else:
                self._float_mask |= 1 << i
        return i

    def id(self, reg: Reg) -> int:
        """The dense id of *reg* (raises ``KeyError`` if absent)."""
        return self._ids[reg]

    def get(self, reg: Reg) -> int | None:
        """The dense id of *reg*, or ``None`` if absent."""
        return self._ids.get(reg)

    def reg(self, i: int) -> Reg:
        """The register with dense id *i*."""
        return self._regs[i]

    def __contains__(self, reg: Reg) -> bool:
        return reg in self._ids

    def __len__(self) -> int:
        return len(self._regs)

    def class_mask(self, rclass: RegClass) -> int:
        """Bitset of every index whose register belongs to *rclass*."""
        return self._int_mask if rclass is RegClass.INT else self._float_mask

    def universe_mask(self) -> int:
        """Bitset with every index set."""
        return (1 << len(self._regs)) - 1

    # -- set <-> bitset conversion ----------------------------------------------

    def from_set(self, regs: Iterable[Reg]) -> int:
        """The bitset of *regs* (each must already be in the index)."""
        ids = self._ids
        bits = 0
        for reg in regs:
            bits |= 1 << ids[reg]
        return bits

    def from_regs(self, regs: Iterable[Reg]) -> int:
        """Like :meth:`from_set` but appends unseen registers first."""
        bits = 0
        for reg in regs:
            bits |= 1 << self.ensure(reg)
        return bits

    def to_set(self, bits: int) -> set[Reg]:
        """The set of registers whose bits are set in *bits*."""
        regs = self._regs
        return {regs[i] for i in iter_bits(bits)}

    def iter_regs(self, bits: int) -> Iterator[Reg]:
        """Iterate the registers of *bits* in ascending id order."""
        regs = self._regs
        for i in iter_bits(bits):
            yield regs[i]


def iter_bits(bits: int) -> Iterator[int]:
    """Yield the positions of the set bits of *bits*, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low
