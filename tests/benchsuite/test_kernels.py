"""Tests for the benchmark kernel suite."""

import pytest

from repro.benchsuite import (ALL_KERNELS, KERNELS_BY_NAME,
                              figure1_function, figure1_pressured,
                              make_twldrv_like)
from repro.interp import run_function
from repro.ir import function_to_text, verify_function


class TestRegistry:
    def test_suite_has_enough_kernels(self):
        assert len(ALL_KERNELS) >= 30

    def test_names_unique(self):
        names = [k.name for k in ALL_KERNELS]
        assert len(names) == len(set(names))

    def test_lookup(self):
        assert KERNELS_BY_NAME["sgemm"].program == "matrix300"

    def test_table2_specimens_present_in_size_order(self):
        sizes = [KERNELS_BY_NAME[n].compile().size()
                 for n in ("repvid", "tomcatv", "twldrv")]
        assert sizes[0] < sizes[1] < sizes[2]


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.name)
class TestEveryKernel:
    def test_compiles_and_verifies(self, kernel):
        fn = kernel.compile()
        verify_function(fn)
        assert fn.size() > 10

    def test_runs_and_produces_output(self, kernel):
        run = run_function(kernel.compile(), args=list(kernel.args),
                           max_steps=2_000_000)
        assert run.output, kernel.name

    def test_deterministic(self, kernel):
        a = run_function(kernel.compile(), args=list(kernel.args))
        b = run_function(kernel.compile(), args=list(kernel.args))
        assert a.output == b.output
        assert a.steps == b.steps

    def test_ir_text_is_the_printed_compile(self, kernel):
        # printed once per process, byte-identical to printing a fresh
        # compile, so request keys and cache entries do not move
        assert kernel.ir_text() == function_to_text(kernel.compile())
        assert kernel.ir_text() is kernel.ir_text()

    def test_compile_returns_fresh_clones(self, kernel):
        fn1 = kernel.compile()
        fn2 = kernel.compile()
        assert fn1 is not fn2
        fn1.blocks[0].instructions.clear()
        assert len(fn2.blocks[0].instructions) > 0


class TestFigureFunctions:
    def test_figure1_runs(self):
        run = run_function(figure1_function(), args=[4])
        assert len(run.output) == 2

    def test_figure1_pressured_runs(self):
        run = run_function(figure1_pressured(), args=[6])
        assert len(run.output) == 3

    def test_twldrv_scales_with_sections(self):
        from repro.frontend import compile_source
        small = compile_source(make_twldrv_like(2))
        large = compile_source(make_twldrv_like(10))
        assert large.size() > small.size() * 2
