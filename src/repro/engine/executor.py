"""The worker side of the engine: execute one request, return a summary.

:func:`execute_request` is a module-level function so it pickles by
reference under the ``spawn`` start method — worker processes import
this module and receive only the (picklable) request.
"""

from __future__ import annotations

from ..interp import run_function
from ..ir import Function, parse_function
from ..obs import NULL_TRACER, Span, Tracer
from ..regalloc import AllocationResult, allocate
from ..regalloc.splitting import SCHEMES
from .request import (AllocationSummary, ExperimentRequest, TimingReport,
                      TimingSample, request_key)


def allocate_request(fn: Function, request: ExperimentRequest,
                     tracer: Tracer | None = None) -> AllocationResult:
    """Allocate *fn* as *request* asks — the one mapping from a
    request's fields to :func:`~repro.regalloc.allocate`, shared by
    :func:`execute_request` and the server's ``trace`` operation: the
    machine, the scheme's mode and pre-split hook (else the plain
    mode), the four heuristic switches and the allocator strategy."""
    mode, pre_split = request.mode, None
    if request.scheme is not None:
        scheme = SCHEMES[request.scheme]
        mode, pre_split = scheme.mode, scheme.pre_split
    return allocate(fn, machine=request.machine, mode=mode,
                    biased=request.biased, lookahead=request.lookahead,
                    coalesce_splits=request.coalesce_splits,
                    optimistic=request.optimistic, pre_split=pre_split,
                    allocator=request.allocator, tracer=tracer)


def _timing_sample(root: Span) -> TimingSample:
    """The Table 2 view of one ``allocate`` span tree."""
    return TimingSample(
        cfa=root.total("cfa"), total=root.duration,
        rounds=[{"renum": r.total("renumber"), "build": r.total("build"),
                 "costs": r.total("costs"), "color": r.total("color"),
                 "spill": r.total("spill")}
                for r in root.children_named("round")],
        clone=root.total("clone"))


def execute_request(request: ExperimentRequest,
                    tracer=NULL_TRACER) -> AllocationSummary:
    """Run one allocation experiment from scratch.

    Deterministic in everything except the :class:`TimingSample`
    wall-clock numbers (which the cache never stores).  *tracer*
    receives the execution's phase spans (``parse`` / ``optimize`` /
    ``allocate`` / ``interpret``) — the worker loop passes one so a
    request's served trace shows where worker-side time went; the
    default :data:`~repro.obs.NULL_TRACER` keeps the untraced path
    free.
    """
    with tracer.span("parse"):
        fn = parse_function(request.ir_text)
    if request.optimize_first:
        from ..opt import optimize

        with tracer.span("optimize"):
            optimize(fn)

    samples: list[TimingSample] = []
    result = None
    with tracer.span("allocate", repeats=max(1, request.repeats)):
        for _ in range(max(1, request.repeats)):
            result = allocate_request(fn, request)
            samples.append(_timing_sample(result.trace))
    assert result is not None

    counts = steps = output = None
    if request.run:
        with tracer.span("interpret"):
            run = run_function(result.function, args=list(request.args))
        counts = dict(run.counts)
        steps = run.steps
        output = tuple(run.output)

    return AllocationSummary(
        key=request_key(request),
        function_name=result.function.name,
        machine_name=request.machine.name,
        int_regs=request.machine.int_regs,
        float_regs=request.machine.float_regs,
        mode=result.mode,
        stats=result.stats,
        allocator=request.allocator,
        rounds=result.rounds,
        code_size=fn.size(),
        allocated_size=result.function.size(),
        counts=counts,
        steps=steps,
        output=output,
        timing=TimingReport(samples=samples))
