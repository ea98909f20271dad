"""The pluggable allocator strategies: registry, argument-validation
ordering, and the SSA spill-everywhere strategy end to end.

The iterated strategy's behavior is pinned elsewhere (its whole test
suite plus the 432-config byte-identity sweep); this file covers what
the refactor added — the strategy seam itself and the second strategy
behind it.
"""

import pytest

from repro.benchsuite import KERNELS_BY_NAME
from repro.interp import run_function
from repro.ir import Opcode, verify_function
from repro.machine import huge_machine, machine_with, tiny_machine
from repro.obs import Tracer
from repro.regalloc import (ALLOCATOR_NAMES, AllocationError, SSAStrategy,
                            allocate, make_strategy)
from repro.remat import RenumberMode

from ..helpers import ALL_SHAPES, nested_loops


class TestStrategyRegistry:
    def test_names(self):
        assert ALLOCATOR_NAMES == ("iterated", "ssa")

    def test_make_strategy_rejects_unknown(self):
        with pytest.raises(ValueError, match="iterated"):
            make_strategy("linear-scan")

    def test_result_records_strategy(self):
        fn = nested_loops()
        assert allocate(fn, machine=huge_machine()).allocator == "iterated"
        assert allocate(fn, machine=huge_machine(),
                        allocator="ssa").allocator == "ssa"


class TestValidationOrdering:
    """Bad arguments must be rejected before the driver mutates the
    input — under ``clone=False`` a late raise used to leave the caller
    holding a half-normalized CFG (unreachable blocks removed, critical
    edges split)."""

    @pytest.mark.parametrize("kwargs", [
        {"mode": "remat"},          # a string, not a RenumberMode
        {"allocator": "linear-scan"},
        {"allocator": None},
    ])
    def test_bad_argument_leaves_input_untouched(self, kwargs):
        fn = nested_loops()
        before = str(fn)
        with pytest.raises((ValueError, TypeError)):
            allocate(fn, machine=tiny_machine(4, 4), clone=False, **kwargs)
        assert str(fn) == before

    def test_good_arguments_still_mutate_in_place(self):
        fn = nested_loops()
        result = allocate(fn, machine=tiny_machine(4, 4), clone=False)
        assert result.function is fn


class TestSSAStrategy:
    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_semantic_equivalence_under_pressure(self, shape):
        fn = shape()
        expected = run_function(fn.clone(), args=[6]).output
        result = allocate(fn, machine=tiny_machine(4, 4), allocator="ssa")
        assert run_function(result.function, args=[6]).output == expected

    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_output_is_physical_and_verified(self, shape):
        result = allocate(shape(), machine=machine_with(6, 6),
                          allocator="ssa", verify_rounds=True)
        verify_function(result.function, require_physical=True,
                        max_int_reg=6, max_float_reg=6)
        for _blk, inst in result.function.instructions():
            assert inst.opcode is not Opcode.PHI

    def test_huge_machine_never_spills(self):
        for shape in ALL_SHAPES:
            result = allocate(shape(), machine=huge_machine(),
                              allocator="ssa")
            assert result.stats.n_spilled_ranges == 0
            assert result.rounds == 1

    def test_deterministic(self):
        fn = KERNELS_BY_NAME["fehl"].compile()
        a = allocate(fn, machine=machine_with(6, 6), allocator="ssa")
        b = allocate(fn, machine=machine_with(6, 6), allocator="ssa")
        assert str(a.function) == str(b.function)
        assert a.stats == b.stats

    def test_too_small_file_raises(self):
        with pytest.raises(AllocationError):
            allocate(nested_loops(), machine=machine_with(1, 1),
                     allocator="ssa", max_rounds=6)

    def test_mode_axis_is_inert(self):
        """The strategy always splits maximally; the requested renumber
        mode must not change its output."""
        fn = KERNELS_BY_NAME["zeroin"].compile()
        outs = {str(allocate(fn, machine=machine_with(6, 6),
                             allocator="ssa", mode=mode).function)
                for mode in RenumberMode}
        assert len(outs) == 1

    def test_spill_events_reconcile_with_stats(self):
        """Every SSA spill decision is evented, and the event count is
        exactly ``n_spilled_ranges`` (the reconciliation invariant the
        iterated strategy's spill_decision events already obey)."""
        fn = KERNELS_BY_NAME["fehl"].compile()
        tracer = Tracer(capture_events=True)
        result = allocate(fn, machine=machine_with(6, 6), allocator="ssa",
                          tracer=tracer)
        assert result.stats.n_spilled_ranges > 0
        events = [e for s in result.trace.walk() for e in s.events
                  if e.kind == "ssa_spill_decision"]
        assert len(events) == result.stats.n_spilled_ranges
        assert {e.chosen_because for e in events} <= \
            {"over-pressure", "uncolorable"}

    def test_pressure_events_cover_every_block(self):
        fn = KERNELS_BY_NAME["zeroin"].compile()
        tracer = Tracer(capture_events=True)
        result = allocate(fn, machine=machine_with(6, 6), allocator="ssa",
                          tracer=tracer)
        pressures = [e for s in result.trace.walk() for e in s.events
                     if e.kind == "maxlive_pressure"]
        labels = {e.block for e in pressures}
        assert {blk.label for blk in result.function.blocks} <= labels

    def test_span_skeleton_matches_iterated(self):
        """Table 2 reads the span tree; both strategies must emit the
        same phase skeleton."""
        fn = KERNELS_BY_NAME["fehl"].compile()
        tracer = Tracer(capture_events=True)
        allocate(fn, machine=machine_with(6, 6), allocator="ssa",
                 tracer=tracer)
        root = tracer.root
        rounds = [s for s in root.children if s.name == "round"]
        assert rounds
        first = {child.name for child in rounds[0].children}
        assert {"renumber", "build", "costs", "color", "spill"} <= first

    def test_strategy_class_is_exported(self):
        assert make_strategy("ssa").__class__ is SSAStrategy
