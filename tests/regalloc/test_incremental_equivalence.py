"""Incremental analysis maintenance vs. from-scratch recomputation.

Across random CFGs and random spill-insertion deltas, the patched
liveness bitsets (:meth:`LivenessInfo.apply_delta`) are bit-for-bit
identical to a from-scratch recomputation over the rewritten code, and
the coalescer's patched interference adjacency
(:meth:`InterferenceGraph.try_refresh_after_coalesce`) equals a fresh
build after every pass.  Deltas are produced by the *real* spill-code
rewriter — either with the allocator's own spill choices or with a
random subset of ranges — so the properties cover exactly the edits the
allocator performs.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import compute_liveness, compute_liveness_sparse, \
    diff_liveness
from repro.benchsuite import GeneratorConfig, random_program
from repro.machine import machine_with
from repro.passes import AnalysisManager
from repro.regalloc import build_interference_graph, run_renumber
from repro.regalloc.coalesce import build_coalesce_loop
from repro.regalloc.interference import diff_graphs
from repro.regalloc.select import find_partners, select
from repro.regalloc.simplify import simplify
from repro.regalloc.spillcode import insert_spill_code
from repro.regalloc.spillcost import compute_spill_costs
from repro.remat import RenumberMode

SHAPES = GeneratorConfig(n_vars=6, max_depth=3, max_stmts=5)
#: tight register files so the allocator's own choices actually spill
MACHINE = machine_with(3, 2)

common = settings(max_examples=60, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])


def _prepared(seed):
    fn = random_program(seed, SHAPES)
    fn.remove_unreachable_blocks()
    fn.split_critical_edges()
    run_renumber(fn, RenumberMode.REMAT)
    return fn


def _allocator_spills(fn, graph, costs):
    order = simplify(graph, MACHINE, costs)
    chosen = select(graph, order, MACHINE, partners=find_partners(fn))
    chosen.spilled.extend(order.pessimistic_spills)
    return chosen.spilled


def _random_spills(fn, graph, costs, rng):
    nodes = [n for n in graph.nodes() if not n.physical]
    if not nodes:
        return []
    return rng.sample(nodes, rng.randint(1, max(1, len(nodes) // 3)))


def _spill_fixture(fn, pick):
    """One real first round on *fn* in place: build-coalesce (with its
    incremental patches self-verified), then spill the ranges chosen by
    *pick* through the real rewriter.  Returns the pre-spill liveness
    and the delta — or ``None`` if *pick* chose nothing."""
    am = AnalysisManager(fn)
    liveness = am.liveness()
    loops = am.loops()
    graph, _ = build_coalesce_loop(fn, MACHINE, build_interference_graph,
                                   liveness=liveness,
                                   verify_incremental=True)
    costs = compute_spill_costs(fn, loops, MACHINE)
    spilled = pick(fn, graph, costs)
    if not spilled:
        return None
    pristine = liveness.clone()
    stats = insert_spill_code(fn, spilled, costs)
    assert stats.delta is not None
    return pristine, stats.delta


def assert_patched_liveness_exact(fn, pristine, delta):
    patched = pristine.clone()
    update = patched.apply_delta(delta)
    assert update.blocks_reanalyzed <= update.blocks_total

    # bit-for-bit against a recompute over the same (shared) index
    fresh = compute_liveness(fn, index=patched.index)
    for label in fn.reverse_postorder():
        assert patched.use_bits(label) == fresh.use_bits(label), label
        assert patched.def_bits(label) == fresh.def_bits(label), label
        assert patched.live_in_bits(label) == fresh.live_in_bits(label), label
        assert patched.live_out_bits(label) == fresh.live_out_bits(label), \
            label
    # and set-level against an independently indexed recompute
    assert not diff_liveness(patched, compute_liveness(fn))


@common
@given(seed=st.integers(0, 10_000))
def test_allocator_spill_delta_patches_exactly(seed):
    """The allocator's own spill choices: the patched liveness equals a
    from-scratch recomputation."""
    fn = _prepared(seed)
    fixture = _spill_fixture(fn, _allocator_spills)
    if fixture is None:
        return  # ample registers for this shape: no delta to check
    assert_patched_liveness_exact(fn, *fixture)


@common
@given(seed=st.integers(0, 10_000), spill_seed=st.integers(0, 1_000))
def test_random_spill_delta_patches_exactly(seed, spill_seed):
    """Random spill subsets through the real rewriter: the exactness
    argument does not depend on *which* ranges spill."""
    fn = _prepared(seed)
    rng = random.Random(spill_seed)
    fixture = _spill_fixture(
        fn, lambda f, g, c: _random_spills(f, g, c, rng))
    if fixture is None:
        return
    assert_patched_liveness_exact(fn, *fixture)


def test_incremental_sweep_100_functions():
    """100+ random CFGs, each with the allocator's spill delta and a
    random one, patched liveness identical to from-scratch
    recomputation."""
    checked = 0
    for seed in range(120):
        for pick in (_allocator_spills,
                     lambda f, g, c, r=random.Random(seed):
                         _random_spills(f, g, c, r)):
            fn = _prepared(seed)
            fixture = _spill_fixture(fn, pick)
            if fixture is None:
                continue
            assert_patched_liveness_exact(fn, *fixture)
            checked += 1
    assert checked >= 100


@common
@given(seed=st.integers(0, 10_000))
def test_coalesce_patches_match_rebuilds(seed):
    """The within-round graph patches equal full rebuilds on every
    coalesce pass (the loop's own verify mode raises on any diff), and
    the loop's final graph equals a fresh build over the final code."""
    fn = _prepared(seed)
    liveness = compute_liveness(fn)
    graph, _ = build_coalesce_loop(fn, MACHINE, build_interference_graph,
                                   liveness=liveness,
                                   verify_incremental=True)
    assert not diff_graphs(graph, build_interference_graph(fn, liveness))


@common
@given(seed=st.integers(0, 10_000))
def test_sparse_liveness_matches_dense(seed):
    """The Tavares-style sparse construction computes the same fixed
    point as the dense worklist, bit for bit, pre- and post-renumber."""
    for fn in (random_program(seed, SHAPES), _prepared(seed)):
        dense = compute_liveness(fn)
        sparse = compute_liveness_sparse(fn, index=dense.index)
        for label in fn.reverse_postorder():
            assert sparse.live_in_bits(label) == dense.live_in_bits(label)
            assert sparse.live_out_bits(label) == dense.live_out_bits(label)
