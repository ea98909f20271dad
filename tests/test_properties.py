"""End-to-end property tests: the allocator never changes behavior.

Random structured programs are interpreted before allocation (unlimited
virtual registers) and after allocation under every renumber mode, both
allocator strategies and several register-file sizes; the observable
output must match exactly.
This single property transitively validates SSA construction, tag
propagation, splitting, coalescing, coloring, biased selection and spill
code.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.benchsuite import GeneratorConfig, random_program
from repro.interp import run_function
from repro.ir import verify_function
from repro.machine import machine_with
from repro.regalloc import ALLOCATOR_NAMES, allocate
from repro.remat import RenumberMode


def outputs_of(fn, **kwargs):
    return run_function(fn, max_steps=2_000_000, **kwargs).output


class TestGenerator:
    def test_deterministic(self):
        a = random_program(42)
        b = random_program(42)
        assert str(a) == str(b)

    def test_programs_differ_across_seeds(self):
        assert str(random_program(1)) != str(random_program(2))

    def test_generated_programs_verify_and_run(self):
        for seed in range(20):
            fn = random_program(seed)
            verify_function(fn)
            outputs_of(fn)


@pytest.mark.parametrize("seed", range(25))
@pytest.mark.parametrize("mode", list(RenumberMode))
def test_allocation_preserves_output(seed, mode):
    fn = random_program(seed)
    expected = outputs_of(fn.clone())
    result = allocate(fn, machine=machine_with(4, 4), mode=mode)
    assert outputs_of(result.function) == expected


@pytest.mark.parametrize("k", [5, 8, 16])
@pytest.mark.parametrize("allocator", ALLOCATOR_NAMES)
def test_allocation_across_register_files(allocator, k):
    for seed in range(8):
        fn = random_program(seed + 100)
        expected = outputs_of(fn.clone())
        result = allocate(fn, machine=machine_with(k, k),
                          allocator=allocator)
        assert outputs_of(result.function) == expected, seed


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000),
       n_vars=st.integers(2, 8),
       max_depth=st.integers(1, 3),
       k=st.integers(4, 10),
       allocator=st.sampled_from(ALLOCATOR_NAMES))
def test_hypothesis_random_shapes(seed, n_vars, max_depth, k, allocator):
    config = GeneratorConfig(n_vars=n_vars, max_depth=max_depth)
    fn = random_program(seed, config)
    expected = outputs_of(fn.clone())
    result = allocate(fn, machine=machine_with(k, k),
                      mode=RenumberMode.REMAT, allocator=allocator)
    verify_function(result.function, require_physical=True, max_int_reg=k,
                    max_float_reg=k)
    assert outputs_of(result.function) == expected


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000))
def test_hypothesis_modes_agree_on_output(seed):
    fn = random_program(seed)
    outs = set()
    for mode in RenumberMode:
        result = allocate(fn, machine=machine_with(5, 5), mode=mode)
        outs.add(tuple(outputs_of(result.function)))
    assert len(outs) == 1
