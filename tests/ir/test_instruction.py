"""Tests for registers and instructions."""

import copy
import json
import pickle
import random

import pytest

from repro.ir import Instruction, Opcode, Reg, RegClass
from repro.obs import Span, Tracer, span_to_payload, trace_to_text


class TestReg:
    def test_virtual_str(self):
        assert str(Reg.vint(3)) == "r3"
        assert str(Reg.vfloat(7)) == "f7"

    def test_physical_str(self):
        assert str(Reg.pint(3)) == "R3"
        assert str(Reg.pfloat(0)) == "F0"

    def test_equality_and_hash(self):
        assert Reg.vint(1) == Reg.vint(1)
        assert Reg.vint(1) != Reg.vfloat(1)
        assert Reg.vint(1) != Reg.pint(1)
        assert len({Reg.vint(1), Reg.vint(1), Reg.vint(2)}) == 2

    def test_ordering_is_total(self):
        regs = [Reg.vint(5), Reg.vfloat(2), Reg.pint(1), Reg.vint(0)]
        assert sorted(regs) == sorted(regs[::-1])


class TestRegIsAnInt:
    """A register is an ``int``; these pin what that does and does not
    mean."""

    KINDS = (Reg.vint, Reg.vfloat, Reg.pint, Reg.pfloat)

    def test_never_equals_zero_or_a_small_int(self):
        assert Reg.vint(0) != 0
        assert bool(Reg.vfloat(0))
        for make in self.KINDS:
            for index in (0, 1, 12, 2**20):
                reg = make(index)
                assert reg != index
                assert reg >= 2**42
                assert reg  # truthy

    def test_int_order_is_sort_key_order(self):
        rng = random.Random(7)
        regs = [rng.choice(self.KINDS)(rng.randrange(5000))
                for _ in range(4000)]
        assert sorted(regs) == sorted(regs, key=Reg.sort_key)

    def test_fields_survive_construction(self):
        for rclass in RegClass:
            for physical in (False, True):
                reg = Reg(rclass, 2**40 - 1, physical)
                assert (reg.rclass, reg.index, reg.physical) == \
                    (rclass, 2**40 - 1, physical)
                assert type(reg.index) is int

    def test_out_of_range_index_raises(self):
        for index in (-1, 2**40):
            with pytest.raises(ValueError):
                Reg.vint(index)

    @pytest.mark.parametrize("clone", [
        lambda r: pickle.loads(pickle.dumps(r)),
        copy.copy, copy.deepcopy])
    def test_pickle_and_copy_give_an_equal_register_of_its_kind(self,
                                                                clone):
        for make in self.KINDS:
            reg = make(3)
            again = clone(reg)
            assert again == reg and type(again) is type(reg)
            assert str(again) == str(reg)

    def test_format_prints_the_name_and_rejects_a_spec(self):
        reg = Reg.vint(3)
        assert f"{reg}" == "r3"
        assert "{}".format(Reg.pfloat(2)) == "F2"
        with pytest.raises(TypeError):
            f"{reg:d}"

    def test_no_instance_dict(self):
        assert not hasattr(Reg.vint(1), "__dict__")

    def test_trace_and_span_payload_render_a_register_by_name(self):
        tracer = Tracer()
        with tracer.span("probe", reg=Reg.vint(3)):
            pass
        lines = [json.loads(line) for line in
                 trace_to_text(tracer.root,
                               {"reg": Reg.pfloat(1)}).splitlines()]
        assert lines[0]["reg"] == "F1"
        spans = [line for line in lines if line.get("name") == "probe"]
        assert spans[0]["attrs"]["reg"] == "r3"
        payload = span_to_payload(Span("probe", {"reg": Reg.vint(3)}))
        assert payload["attrs"]["reg"] == "r3"


class TestInstruction:
    def test_str_add(self):
        inst = Instruction(Opcode.ADD, dests=(Reg.vint(2),),
                           srcs=(Reg.vint(0), Reg.vint(1)))
        assert str(inst) == "add r2 r0 r1"

    def test_str_ldi(self):
        inst = Instruction(Opcode.LDI, dests=(Reg.vint(4),), imms=(42,))
        assert str(inst) == "ldi r4 42"

    def test_str_cbr(self):
        inst = Instruction(Opcode.CBR, srcs=(Reg.vint(1),),
                           labels=("a", "b"))
        assert str(inst) == "cbr r1 a b"

    def test_validate_accepts_wellformed(self):
        Instruction(Opcode.FADD, dests=(Reg.vfloat(0),),
                    srcs=(Reg.vfloat(1), Reg.vfloat(2))).validate()

    def test_validate_rejects_wrong_class(self):
        inst = Instruction(Opcode.ADD, dests=(Reg.vfloat(0),),
                           srcs=(Reg.vint(1), Reg.vint(2)))
        with pytest.raises(ValueError):
            inst.validate()

    def test_validate_rejects_wrong_arity(self):
        inst = Instruction(Opcode.ADD, dests=(Reg.vint(0),),
                           srcs=(Reg.vint(1),))
        with pytest.raises(ValueError):
            inst.validate()

    def test_validate_rejects_wrong_label_count(self):
        inst = Instruction(Opcode.JMP, labels=("a", "b"))
        with pytest.raises(ValueError):
            inst.validate()

    def test_validate_rejects_float_imm_for_int_slot(self):
        inst = Instruction(Opcode.LDI, dests=(Reg.vint(0),), imms=(1.5,))
        with pytest.raises(ValueError):
            inst.validate()

    def test_phi_validation(self):
        phi = Instruction(Opcode.PHI, dests=(Reg.vint(0),),
                          srcs=(Reg.vint(1), Reg.vint(2), Reg.vint(3)))
        phi.validate()
        bad = Instruction(Opcode.PHI, dests=(Reg.vint(0),),
                          srcs=(Reg.vfloat(1),))
        with pytest.raises(ValueError):
            bad.validate()

    @pytest.mark.parametrize("opcode, reg", [
        (Opcode.LDI, Reg.vint(4)), (Opcode.LDF, Reg.vint(4)),
        (Opcode.SPLD, Reg.pint(0))])
    def test_validate_rejects_a_register_as_immediate(self, opcode, reg):
        # a Reg is an int, so the int-immediate check alone would pass it
        dest = Reg.vfloat(0) if opcode is Opcode.LDF else Reg.vint(0)
        inst = Instruction(opcode, dests=(dest,), imms=(reg,))
        with pytest.raises(ValueError, match="immediate"):
            inst.validate()

    def test_rewrite_regs(self):
        inst = Instruction(Opcode.ADD, dests=(Reg.vint(2),),
                           srcs=(Reg.vint(0), Reg.vint(1)))
        inst.rewrite_regs({Reg.vint(0): Reg.pint(5), Reg.vint(2): Reg.pint(6)})
        assert inst.srcs == (Reg.pint(5), Reg.vint(1))
        assert inst.dests == (Reg.pint(6),)

    def test_copy_is_independent(self):
        inst = Instruction(Opcode.ADD, dests=(Reg.vint(2),),
                           srcs=(Reg.vint(0), Reg.vint(1)))
        clone = inst.copy()
        clone.rewrite_regs({Reg.vint(0): Reg.vint(9)})
        assert inst.srcs[0] == Reg.vint(0)

    def test_remat_key_equality(self):
        a = Instruction(Opcode.LDI, dests=(Reg.vint(0),), imms=(7,))
        b = Instruction(Opcode.LDI, dests=(Reg.vint(9),), imms=(7,))
        c = Instruction(Opcode.LDI, dests=(Reg.vint(0),), imms=(8,))
        d = Instruction(Opcode.LSD, dests=(Reg.vint(0),), imms=(7,))
        assert a.remat_key() == b.remat_key()
        assert a.remat_key() != c.remat_key()
        assert a.remat_key() != d.remat_key()

    def test_remat_key_rejects_ordinary_ops(self):
        inst = Instruction(Opcode.ADD, dests=(Reg.vint(2),),
                           srcs=(Reg.vint(0), Reg.vint(1)))
        with pytest.raises(ValueError):
            inst.remat_key()

    def test_single_dest_src_accessors(self):
        inst = Instruction(Opcode.COPY, dests=(Reg.vint(1),),
                           srcs=(Reg.vint(0),))
        assert inst.dest == Reg.vint(1)
        assert inst.src == Reg.vint(0)
        assert inst.is_copy and not inst.is_split

    def test_split_flags(self):
        inst = Instruction(Opcode.SPLIT, dests=(Reg.vint(1),),
                           srcs=(Reg.vint(0),))
        assert inst.is_copy and inst.is_split
