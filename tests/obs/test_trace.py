"""Trace export round-tripping, event/stat reconciliation, and the
span-tree property tests over random CFGs (ISSUE satellite 4)."""

import math
import os
import subprocess
import sys

import pytest

from repro.benchsuite import KERNELS_BY_NAME
from repro.benchsuite.generators import random_program
from repro.machine import machine_with
from repro.obs import (Tracer, metrics_from_allocation, parse_trace,
                       trace_to_text)
from repro.regalloc import allocate
from repro.remat import RenumberMode

PHASES = ("renumber", "build", "costs", "color", "spill")


def traced_allocation(fn, machine, mode=RenumberMode.REMAT):
    tracer = Tracer(capture_events=True)
    result = allocate(fn, machine=machine, mode=mode, tracer=tracer)
    return result, tracer


def spill_forcing_machine():
    return machine_with(4, 4)


# -- reconciliation: events are the provenance of the stat counters -----------

@pytest.mark.parametrize("mode", [RenumberMode.CHAITIN, RenumberMode.REMAT])
@pytest.mark.parametrize("kernel", ["fehl", "zeroin", "svd"])
def test_events_reconcile_with_stats(kernel, mode):
    """Every stats counter with an event source matches its event count
    exactly (the ISSUE's acceptance invariant)."""
    fn = KERNELS_BY_NAME[kernel].compile()
    result, tracer = traced_allocation(fn, machine_with(8, 8), mode)
    root = result.trace
    events = [e for s in root.walk() for e in s.events]

    def of(kind):
        return [e for e in events if getattr(e, "kind", None) == kind]

    spills = of("spill_decision")
    assert len(spills) == result.stats.n_spilled_ranges
    assert sum(1 for e in spills if e.remat_tag) == \
        result.stats.n_remat_spills
    coalesced = [e for e in of("coalesce_decision") if e.accepted]
    assert sum(1 for e in coalesced if e.copy_kind == "copy") == \
        result.stats.n_copies_coalesced
    assert sum(1 for e in coalesced if e.copy_kind == "split") == \
        result.stats.n_splits_coalesced
    assert len(of("split_inserted")) == result.stats.n_splits_inserted


def test_round_indices_cover_every_round():
    fn = KERNELS_BY_NAME["fehl"].compile()
    result, tracer = traced_allocation(fn, machine_with(8, 8))
    rounds = [s for s in result.trace.walk() if s.name == "round"]
    assert [r.attrs["index"] for r in rounds] == list(range(result.rounds))


# -- JSONL round-trip ---------------------------------------------------------

def test_jsonl_round_trip():
    fn = KERNELS_BY_NAME["zeroin"].compile()
    result, tracer = traced_allocation(fn, machine_with(6, 6))
    meta = {"function": fn.name, "mode": "remat", "machine": "k6x6",
            "int_regs": 6, "float_regs": 6}
    registry = metrics_from_allocation(result)
    text = trace_to_text(result.trace, meta, registry)
    doc = parse_trace(text)

    assert doc.meta["function"] == fn.name
    assert doc.meta["version"] == 1
    # the span tree survives: same names in the same pre-order, same
    # durations (within JSON float rounding)
    ours = list(result.trace.walk())
    theirs = list(doc.root.walk())
    assert [s.name for s in theirs] == [s.name for s in ours]
    for a, b in zip(ours, theirs):
        assert b.duration == pytest.approx(a.duration, abs=1e-8)
    # every event survives with its kind, and typed events parse back
    # into the same dataclass values
    assert len(doc.events) == result.trace.n_events()
    originals = [e for s in ours for e in s.events]
    for original, loaded in zip(originals, doc.events):
        assert loaded.kind == original.kind
        assert loaded.event == original
    # metrics line round-trips
    assert doc.metrics["counters"] == registry.counters()
    # round annotation matches the enclosing round span
    assert doc.n_rounds == result.rounds
    for event in doc.events:
        assert event.round is None or 0 <= event.round < result.rounds


def test_round_trip_is_stable():
    """parse → re-export → parse is a fixed point (same line shapes)."""
    fn = KERNELS_BY_NAME["zeroin"].compile()
    result, _ = traced_allocation(fn, machine_with(6, 6))
    meta = {"function": fn.name}
    text = trace_to_text(result.trace, meta,
                         metrics_from_allocation(result))
    doc = parse_trace(text)
    text2 = trace_to_text(doc.root, doc.meta)
    doc2 = parse_trace(text2)
    assert [s.name for s in doc2.root.walk()] == \
        [s.name for s in doc.root.walk()]
    assert len(doc2.events) == len(doc.events)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_trace("not json\n")
    with pytest.raises(ValueError):
        parse_trace('{"type": "wat"}\n')
    with pytest.raises(ValueError):
        parse_trace("")  # no root span


# -- span-tree properties over random CFGs (satellite 4) ----------------------

SEEDS = range(50)


@pytest.mark.parametrize("seed", SEEDS)
def test_span_tree_properties_random_cfg(seed):
    """On 50 random CFGs: the span tree nests correctly and the
    RoundTimes/cfa_time/total_time views agree with the tree."""
    fn = random_program(seed)
    result, tracer = traced_allocation(fn, spill_forcing_machine())
    root = result.trace
    assert root is tracer.root
    assert tracer.current is None, "spans left open"

    # containment: every child's interval lies inside its parent's
    def check(span):
        for child in span.children:
            assert span.start <= child.start <= child.end <= span.end
            check(child)
    check(root)

    # siblings are sequential (the allocator's phases do not overlap)
    def check_ordered(span):
        for a, b in zip(span.children, span.children[1:]):
            assert a.end <= b.start
            check_ordered(a)
        if span.children:
            check_ordered(span.children[-1])
    check_ordered(root)

    # the timing views are exactly the tree's numbers
    rounds = [s for s in root.walk() if s.name == "round"]
    assert len(rounds) == len(result.round_times)
    for span, times in zip(rounds, result.round_times):
        assert times.span is span
        for phase in PHASES:
            assert getattr(times, phase) == span.total(phase)
        # phases account for (almost all of) the round: the slack is
        # loop scaffolding, far below the phase work itself
        phase_sum = sum(span.total(p) for p in PHASES)
        assert phase_sum <= span.duration
    cfa = root.child("cfa")
    assert result.cfa_time == cfa.duration
    assert result.total_time == root.duration
    assert result.clone_time == root.total("clone")

    # events reconcile on random programs too
    events = [e for s in root.walk() for e in s.events]
    spills = [e for e in events
              if getattr(e, "kind", None) == "spill_decision"]
    assert len(spills) == result.stats.n_spilled_ranges


def test_untraced_allocation_still_carries_times():
    """Without a caller tracer the allocator builds its own span tree,
    so the timing fields keep working exactly as before."""
    fn = random_program(1)
    result = allocate(fn, machine=spill_forcing_machine())
    assert result.total_time > 0
    assert result.cfa_time > 0
    assert math.isfinite(result.clone_time)
    assert result.trace is not None
    assert result.trace.name == "allocate"


# -- hash-seed independence ----------------------------------------------------

#: prints the timing-stripped trace and the allocated ILOC of two fehl
#: allocations at 6+6 registers (both strategies, both renumber schemes)
_SEEDED_TRACE = """
import json
from repro.benchsuite import KERNELS_BY_NAME
from repro.ir import function_to_text
from repro.machine import machine_with
from repro.obs import Tracer, trace_to_text
from repro.regalloc import allocate
from repro.remat import RenumberMode

for mode, allocator in (("remat", "iterated"), ("chaitin", "ssa")):
    tracer = Tracer(capture_events=True)
    result = allocate(KERNELS_BY_NAME["fehl"].compile(),
                      machine=machine_with(6, 6), mode=RenumberMode(mode),
                      allocator=allocator, tracer=tracer)
    for line in trace_to_text(result.trace, {}).splitlines():
        record = json.loads(line)
        record.pop("start", None)
        record.pop("dur", None)
        print(json.dumps(record))
    print(function_to_text(result.function))
"""


def test_traces_do_not_depend_on_the_hash_seed():
    """Decision events, their order and the allocated code are the same
    in two processes with different string-hash seeds."""
    outputs = []
    for seed in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", _SEEDED_TRACE], capture_output=True,
            text=True, timeout=120,
            env={**os.environ, "PYTHONHASHSEED": seed})
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert '"kind": "split_inserted"' in outputs[0]
    assert outputs[0] == outputs[1]
