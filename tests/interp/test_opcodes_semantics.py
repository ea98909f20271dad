"""Exhaustive per-opcode semantic tests for the interpreter.

Every non-control opcode gets at least one directed check of its value
semantics, so a regression in any single case cannot hide behind the
aggregate kernels.
"""

import pytest

from repro.interp import FP_BASE, InterpreterError, SD_BASE, run_function
from repro.ir import Opcode, parse_function

from ..helpers import single_op


def run(body, args=None, const_pool=None, n_params=0):
    text = f"proc t {n_params}\nentry:\n"
    for line in body.strip().splitlines():
        text += f"    {line.strip()}\n"
    text += "    ret\n"
    return run_function(parse_function(text), args=args,
                        const_pool=const_pool).output


class TestIntegerOpcodes:
    def test_ldi(self):
        assert run("ldi r0 -7\nout r0") == [-7]

    def test_add_sub_mul(self):
        assert run("ldi r0 6\nldi r1 4\nadd r2 r0 r1\nsub r3 r0 r1\n"
                   "mul r4 r0 r1\nout r2\nout r3\nout r4") == [10, 2, 24]

    def test_div_truncates_toward_zero(self):
        assert run("ldi r0 7\nldi r1 -2\ndiv r2 r0 r1\nout r2") == [-3]
        assert run("ldi r0 -7\nldi r1 -2\ndiv r2 r0 r1\nout r2") == [3]

    def test_neg(self):
        assert run("ldi r0 5\nneg r1 r0\nout r1") == [-5]

    def test_immediate_forms(self):
        assert run("ldi r0 10\naddi r1 r0 -3\nsubi r2 r0 4\n"
                   "muli r3 r0 3\nout r1\nout r2\nout r3") == [7, 6, 30]

    @pytest.mark.parametrize("op,a,b,expected", [
        ("cmp_lt", 1, 2, 1), ("cmp_lt", 2, 2, 0),
        ("cmp_le", 2, 2, 1), ("cmp_le", 3, 2, 0),
        ("cmp_gt", 3, 2, 1), ("cmp_gt", 2, 2, 0),
        ("cmp_ge", 2, 2, 1), ("cmp_ge", 1, 2, 0),
        ("cmp_eq", 2, 2, 1), ("cmp_eq", 1, 2, 0),
        ("cmp_ne", 1, 2, 1), ("cmp_ne", 2, 2, 0),
    ])
    def test_comparisons(self, op, a, b, expected):
        assert run(f"ldi r0 {a}\nldi r1 {b}\n{op} r2 r0 r1\nout r2") \
            == [expected]


class TestFloatOpcodes:
    def test_ldf(self):
        assert run("ldf f0 -2.5\nfout f0") == [-2.5]

    def test_float_arith(self):
        assert run("ldf f0 6.0\nldf f1 4.0\nfadd f2 f0 f1\n"
                   "fsub f3 f0 f1\nfmul f4 f0 f1\nfdiv f5 f0 f1\n"
                   "fout f2\nfout f3\nfout f4\nfout f5") \
            == [10.0, 2.0, 24.0, 1.5]

    def test_fabs_fneg(self):
        assert run("ldf f0 -3.5\nfabs f1 f0\nfneg f2 f0\n"
                   "fout f1\nfout f2") == [3.5, 3.5]

    @pytest.mark.parametrize("op,a,b,expected", [
        ("fcmp_lt", 1.0, 2.0, 1), ("fcmp_le", 2.0, 2.0, 1),
        ("fcmp_gt", 3.0, 2.0, 1), ("fcmp_ge", 1.0, 2.0, 0),
        ("fcmp_eq", 2.0, 2.0, 1), ("fcmp_ne", 2.0, 2.0, 0),
    ])
    def test_float_comparisons(self, op, a, b, expected):
        assert run(f"ldf f0 {a}\nldf f1 {b}\n{op} r0 f0 f1\nout r0") \
            == [expected]

    def test_conversions(self):
        assert run("ldi r0 3\ni2f f0 r0\nfout f0") == [3.0]
        assert run("ldf f0 3.9\nf2i r0 f0\nout r0") == [3]


class TestAddressOpcodes:
    def test_lfp_lsd(self):
        assert run("lfp r0 24\nout r0") == [FP_BASE + 24]
        assert run("lsd r0 24\nout r0") == [SD_BASE + 24]

    def test_memory_roundtrip_with_offsets(self):
        assert run("lsd r0 0\nldi r1 77\nstwo r1 r0 16\nldwo r2 r0 16\n"
                   "out r2") == [77]

    def test_float_memory(self):
        assert run("lsd r0 0\nldf f0 1.25\nfsto f0 r0 8\nfldo f1 r0 8\n"
                   "fout f1") == [1.25]
        assert run("lsd r0 8\nldf f0 1.25\nfst f0 r0\nfld f1 r0\n"
                   "fout f1") == [1.25]

    def test_cldw_cldf(self):
        assert run("cldw r0 4\nout r0", const_pool={4: 9}) == [9]
        assert run("cldf f0 8\nfout f0", const_pool={8: 0.5}) == [0.5]

    def test_spill_opcodes(self):
        assert run("ldi r0 3\nspst r0 1\nspld r1 1\nout r1") == [3]
        assert run("ldf f0 0.75\nfspst f0 2\nfspld f1 2\nfout f1") == [0.75]


class TestCopiesAndControl:
    def test_all_copy_forms(self):
        assert run("ldi r0 4\ncopy r1 r0\nsplit r2 r1\nout r2") == [4]
        assert run("ldf f0 4.5\nfcopy f1 f0\nfsplit f2 f1\nfout f2") \
            == [4.5]

    def test_nop_has_no_effect(self):
        assert run("ldi r0 1\nnop\nout r0") == [1]

    def test_cbr_both_directions(self):
        text = """proc t 1
entry:
    param r0 0
    cbr r0 yes no
yes:
    ldi r1 1
    out r1
    ret
no:
    ldi r1 0
    out r1
    ret
"""
        fn = parse_function(text)
        assert run_function(fn, args=[5]).output == [1]
        assert run_function(fn, args=[0]).output == [0]

    def test_params_by_index(self):
        assert run("param r0 1\nparam r1 0\nsub r2 r0 r1\nout r2",
                   args=[10, 14], n_params=2) == [4]
        assert run("fparam f0 0\nfout f0", args=[2.5], n_params=1) == [2.5]


class TestOpcodeCoverage:
    def test_every_executable_opcode_is_interpreted(self):
        """Sanity net, by behaviour: one valid instruction of each opcode
        except PHI runs through ``run_function`` and is counted once;
        PHI is rejected when reached."""
        for op in Opcode:
            fn = single_op(op)
            if op is Opcode.PHI:
                with pytest.raises(InterpreterError,
                                   match="phi reached the interpreter"):
                    run_function(fn)
                continue
            result = run_function(fn, args=[3], const_pool={0: 5})
            assert result.opcode_counts[op] == 1, op
