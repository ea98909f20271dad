"""Equivalence of the decode-once interpreter and the seed interpreter.

:func:`repro.interp.run_function` must be indistinguishable from the seed's
per-instruction interpreter (kept in ``tests/reference_impl.py``): equal
``output``, ``counts``, ``opcode_counts`` (key order included), ``steps``
and ``memory``, or else the same exception class and message.  Values are
compared by ``repr`` so ``1``/``1.0``/``True`` and ``0.0``/``-0.0`` count as
different.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.benchsuite import ALL_KERNELS, GeneratorConfig, random_program
from repro.interp import run_function
from repro.ir import Function, Opcode, RegClass, parse_function
from repro.machine import machine_with, standard_machine
from repro.regalloc import ALLOCATOR_NAMES, allocate
from repro.remat import RenumberMode

from ..helpers import nested_loops, single_op
from ..reference_impl import ref_run_function

INT, FLOAT = RegClass.INT, RegClass.FLOAT


def outcome(runner, fn, **kwargs):
    """Everything observable about one run, or the exception it raised."""
    try:
        run = runner(fn, **kwargs)
    except Exception as exc:  # the oracle comparison wants any exception
        return ("raised", type(exc), str(exc))
    return ("ran", repr(run.output), repr(list(run.counts.items())),
            repr(list(run.opcode_counts.items())), run.steps,
            repr(list(run.memory.items())))


def assert_matches_oracle(fn, **kwargs):
    got = outcome(run_function, fn, **kwargs)
    assert got == outcome(ref_run_function, fn, **kwargs)
    return got


# -- the cold Table 1 corpus --------------------------------------------------

@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.name)
def test_suite_kernel_matches_oracle(kernel):
    """Unallocated, then allocated by Old and New on the standard machine."""
    fn = kernel.compile()
    args = list(kernel.args)
    assert assert_matches_oracle(fn, args=args)[0] == "ran"
    for mode in (RenumberMode.CHAITIN, RenumberMode.REMAT):
        allocated = allocate(fn, machine=standard_machine(), mode=mode)
        assert assert_matches_oracle(allocated.function, args=args)[0] == \
            "ran"


# -- random programs ----------------------------------------------------------

@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), n_vars=st.integers(2, 8),
       max_depth=st.integers(1, 3), k=st.integers(4, 8),
       allocator=st.sampled_from(ALLOCATOR_NAMES),
       mode=st.sampled_from(list(RenumberMode)))
def test_random_program_matches_oracle(seed, n_vars, max_depth, k,
                                       allocator, mode):
    fn = random_program(seed, GeneratorConfig(n_vars=n_vars,
                                              max_depth=max_depth))
    assert_matches_oracle(fn, max_steps=2_000_000)
    allocated = allocate(fn, machine=machine_with(k, k), mode=mode,
                         allocator=allocator)
    assert_matches_oracle(allocated.function, max_steps=2_000_000)


# -- the step budget ----------------------------------------------------------

def test_every_step_budget_matches_oracle():
    """Every budget from 0 to one past the run's length: the run stops at
    the same instruction, or completes with the same counts."""
    fn = nested_loops()
    total = run_function(fn, args=[3]).steps
    for max_steps in range(total + 2):
        got = assert_matches_oracle(fn, args=[3], max_steps=max_steps)
        assert got[0] == ("ran" if max_steps >= total else "raised")


def test_every_step_budget_before_a_failing_instruction_matches_oracle():
    """A loop, then a block whose middle instruction fails: each budget
    either stops the run first or lets the failure through, exactly where
    the oracle does."""
    fn = program("ldi r0 0\nldi r1 3\nldi r2 0\njmp h",
                 "h:\naddi r0 r0 1\ncmp_lt r3 r0 r1\ncbr r3 h x",
                 "x:\nout r0\ndiv r4 r0 r2\nout r4\nret")
    kinds = set()
    for max_steps in range(20):
        got = assert_matches_oracle(fn, max_steps=max_steps)
        kinds.add(got[2])
    assert kinds == {"exceeded %d steps in t" % m for m in range(15)} | {
        "integer division by zero"}


# -- directed error programs --------------------------------------------------

def program(body: str, *blocks: str, n_params: int = 0) -> Function:
    """``proc t`` with an ``entry`` block holding *body*, then *blocks*
    (each ``label:`` followed by its lines), all taken verbatim."""
    text = f"proc t {n_params}\nentry:\n{body}\n" + "\n".join(blocks)
    return parse_function(text)


DIRECTED = {
    "uninitialized first source": (program("ldi r1 1\nadd r2 r0 r1\nret"),
                                   {}),
    "uninitialized second source": (program("ldi r0 1\nadd r2 r0 r1\nret"),
                                    {}),
    "both sources uninitialized": (program("sub r2 r0 r1\nret"), {}),
    "uninitialized branch condition": (
        program("cbr r0 a a", "a:\nret"), {}),
    "uninitialized store value": (program("lsd r1 0\nstw r0 r1\nret"), {}),
    "uninitialized store address": (program("ldi r0 1\nstw r0 r1\nret"),
                                    {}),
    "uninitialized store operands": (program("stwo r0 r1 8\nret"), {}),
    "uninitialized spill store": (program("spst r0 2\nret"), {}),
    "uninitialized out": (program("ldi r0 1\nout r0\nfout f0\nret"), {}),
    "integer division by zero": (
        program("ldi r0 0\ndiv r1 r2 r0\nret"), {}),
    "uninitialized divisor": (program("ldi r0 1\ndiv r1 r0 r2\nret"), {}),
    "float division by zero": (
        program("ldf f0 0.0\nfdiv f1 f2 f0\nret"), {}),
    "float division by negative zero": (
        program("ldf f0 -0.0\nldf f1 1.0\nfdiv f2 f1 f0\nret"), {}),
    "truncating division": (
        program("ldi r0 -7\nldi r1 2\ndiv r2 r0 r1\nout r2\nret"), {}),
    "missing argument": (program("param r0 1\nret", n_params=2),
                         {"args": [1]}),
    "missing float argument": (program("fparam f0 0\nret", n_params=1),
                               {"args": []}),
    "negative argument index": (
        program("param r0 -1\nout r0\nret", n_params=1), {"args": [4, 5]}),
    "float argument to param": (program("param r0 0\nret", n_params=1),
                                {"args": [1.5]}),
    "int argument to fparam": (
        program("fparam f0 0\nfout f0\nret", n_params=1), {"args": [2]}),
    "non-numeric argument to fparam": (
        program("fparam f0 0\nret", n_params=1), {"args": ["x"]}),
    "huge argument to fparam": (
        program("fparam f0 0\nret", n_params=1), {"args": [10 ** 400]}),
    "huge int converted by i2f": (
        program("param r0 0\ni2f f0 r0\nret", n_params=1),
        {"args": [10 ** 400]}),
    "huge int reloaded by fld": (
        program("param r0 0\nlsd r1 0\nstw r0 r1\nfld f0 r1\nret",
                n_params=1), {"args": [10 ** 400]}),
    "infinity converted by f2i": (
        program("ldf f0 1e308\nfmul f1 f0 f0\nf2i r0 f1\nret"), {}),
    "nan converted by f2i": (
        program("ldf f0 1e308\nfmul f1 f0 f0\nfsub f2 f1 f1\n"
                "f2i r0 f2\nret"), {}),
    "cldw of a float constant": (program("cldw r0 8\nret"),
                                 {"const_pool": {8: 2.5}}),
    "cldw of a missing constant": (program("cldw r0 8\nout r0\nret"), {}),
    "cldf of an int constant": (program("cldf f0 8\nfout f0\nret"),
                                {"const_pool": {8: 3}}),
    "cldf of a non-numeric constant": (program("cldf f0 8\nret"),
                                       {"const_pool": {8: "x"}}),
    "float stored with fst, reloaded by ldw": (
        program("lsd r0 0\nldf f0 1.5\nfst f0 r0\nldw r1 r0\nret"), {}),
    "float stored with fsto, reloaded by ldwo": (
        program("lsd r0 0\nldf f0 1.5\nfsto f0 r0 8\nldwo r1 r0 8\nret"),
        {}),
    "float spilled, reloaded by spld": (
        program("ldf f0 1.5\nfspst f0 0\nspld r0 0\nret"), {}),
    "int stored, reloaded as float": (
        program("lsd r0 0\nldi r1 3\nstw r1 r0\nfld f0 r0\nfout f0\nret"),
        {}),
    "never-stored cells read as zero": (
        program("lsd r0 0\nldw r1 r0\nfldo f0 r0 8\nspld r2 3\n"
                "fspld f1 3\nout r1\nfout f0\nout r2\nfout f1\nret"), {}),
    "phi reached": (program("ldi r0 1\nout r0\nphi r1 r0 r0\nret"), {}),
    "fall through without terminator": (program("ldi r0 1\nout r0"), {}),
    "empty block": (program("jmp a", "a:"), {}),
    "fall through after a loop": (
        program("ldi r0 0\nldi r2 3\njmp h",
                "h:\naddi r0 r0 1\ncmp_lt r1 r0 r2\ncbr r1 h x",
                "x:\nout r0"), {}),
    "instructions after ret": (
        program("ldi r0 1\nout r0\nret\nout r9\nphi r1 r0\njmp nowhere"),
        {}),
    "instructions after jmp": (
        program("ldi r0 1\njmp a\nout r9\nret", "a:\nout r0\nret"), {}),
    "instructions after cbr": (
        program("ldi r0 0\ncbr r0 a b\ndiv r1 r0 r0", "a:\nret",
                "b:\nout r0\nret\nout r9"), {}),
    "branch to a missing label": (
        program("ldi r0 1\ncbr r0 nowhere a", "a:\nret"), {}),
    "missing label never taken": (
        program("ldi r0 0\ncbr r0 nowhere a", "a:\nout r0\nret"), {}),
    "jump to a missing label": (program("jmp nowhere"), {}),
    # decoding meets these errors first; they must wait for their turn
    "uninitialized read before a float cldw": (
        program("out r9\ncldw r0 8\nret"), {"const_pool": {8: 2.5}}),
    "division by zero before a phi": (
        program("ldi r0 0\ndiv r1 r0 r0\nphi r2 r0\nret"), {}),
    "uninitialized read before a missing argument": (
        program("out r9\nparam r0 0\nret"), {}),
    "step budget before a missing argument": (
        program("ldi r0 1\nparam r1 0\nret"), {"max_steps": 1}),
}


@pytest.mark.parametrize("name", list(DIRECTED))
def test_directed_program_matches_oracle(name):
    fn, kwargs = DIRECTED[name]
    assert_matches_oracle(fn, **kwargs)


# -- instructions that break their opcode's signature -------------------------
#
# The parser and IRBuilder validate operand classes; ``Instruction(...)``
# does not, so the interpreter's checks are all that stands between a
# mistyped instruction and a silently wrong answer.

EXECUTABLE = [op for op in Opcode if op is not Opcode.PHI]
RUN_KWARGS = {"args": [3], "const_pool": {0: 5}}


def _class_combinations(opcode: Opcode):
    info = opcode.info
    n = len(info.dests) + len(info.srcs)
    for classes in itertools.product((INT, FLOAT), repeat=n):
        yield classes[:len(info.dests)], classes[len(info.dests):]


@pytest.mark.parametrize("opcode", EXECUTABLE, ids=lambda op: op.name)
def test_every_operand_class_combination_matches_oracle(opcode):
    """Each opcode under every assignment of register classes to its
    operands, the signature's own included."""
    for dest_classes, src_classes in _class_combinations(opcode):
        fn = single_op(opcode, dest_classes, src_classes)
        assert_matches_oracle(fn, **RUN_KWARGS)


@pytest.mark.parametrize("opcode,imms", [
    (Opcode.LDI, [2.5]), (Opcode.LDI, [True]), (Opcode.LDF, [10 ** 400]),
    (Opcode.LDF, ["2.5"]), (Opcode.LFP, [0.5]), (Opcode.LSD, [-0.5]),
    (Opcode.ADDI, [0.5]), (Opcode.SUBI, [0.5]), (Opcode.MULI, [0.5]),
    (Opcode.MULI, [10 ** 400]), (Opcode.LDWO, [0.5]), (Opcode.FLDO, [0.5]),
    (Opcode.STWO, [0.5]), (Opcode.FSTO, [-0.5]), (Opcode.SPLD, [0.5]),
    (Opcode.FSPLD, [0.5]), (Opcode.SPST, [0.5]), (Opcode.FSPST, [0.5]),
    (Opcode.PARAM, [0.5]), (Opcode.FPARAM, [1]), (Opcode.CLDW, [[]]),
])
def test_mistyped_immediate_matches_oracle(opcode, imms):
    assert_matches_oracle(single_op(opcode, imms=imms), **RUN_KWARGS)


def test_mistyped_store_with_uninitialized_value_matches_oracle():
    """A store reads its value before it checks its address."""
    fn = single_op(Opcode.SPST, imms=[0.5])
    fn.entry.instructions.pop(0)  # the value's definition
    assert_matches_oracle(fn)
    fn = single_op(Opcode.STW, src_classes=[INT, FLOAT])
    fn.entry.instructions.pop(0)
    assert_matches_oracle(fn)


@pytest.mark.parametrize("opcode,values", [
    (Opcode.DIV, [7, 0]), (Opcode.DIV, [-7, 2]), (Opcode.DIV, [7, -2]),
    (Opcode.FDIV, [2.5, 0.5]), (Opcode.CMP_LT, [3, 3]),
    (Opcode.CMP_NE, [3, 3]), (Opcode.FCMP_EQ, [3, 3]), (Opcode.CBR, [0]),
    (Opcode.NEG, [0]), (Opcode.FNEG, [0.5]), (Opcode.FABS, [-2]),
])
def test_operand_values_match_oracle(opcode, values):
    """Zero divisors, signs and both branch directions, for every class
    assignment."""
    for dest_classes, src_classes in _class_combinations(opcode):
        fn = single_op(opcode, dest_classes, src_classes, values=values)
        assert_matches_oracle(fn, **RUN_KWARGS)
