"""Requests and results of the allocation-experiment engine.

An :class:`ExperimentRequest` is a *value*: the complete, serialized
description of one allocation experiment — the function (as canonical
ILOC text), the register file, the renumber mode, the heuristic flags,
whether the optimizer pipeline runs first, and the interpreter arguments.
Two requests with the same content hash (:func:`request_key`) describe
the same experiment, and — because the allocator is deterministic (see
``docs/performance.md``) — produce the same :class:`AllocationSummary`.

The key deliberately covers only what determines the cached payload:

* the machine's *register counts* but not its name or cycle costs —
  summaries store raw dynamic counts and are priced by the caller, so
  one huge-machine baseline run serves every cost model and every
  harness (Table 1, the ablations, the register sweep);
* not ``repeats`` and not ``cacheable`` — wall-clock timing is never
  part of the cached payload (timing-sensitive requests declare
  ``cacheable=False`` and are always measured live).

``CACHE_VERSION`` salts every key.  Bump it whenever a change to the
allocator, optimizer, or interpreter can alter experiment *results*;
stale entries then simply miss.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..ir import CountClass
from ..machine import MachineDescription
from ..regalloc.allocator import AllocationStats
from ..remat import RenumberMode

#: bump to invalidate every persisted cache entry
#: 2: allocator/optimizer rebuilt on the pass pipeline + AnalysisManager
#: 3: checksummed envelope storage (pre-envelope entries never match)
#: 4: incremental analysis maintenance (exact coalesce-delete liveness
#:    patches change colorings; AllocationStats grew incremental fields)
#: 5: sharded store layout for multi-process sharing (flat v4 entries
#:    never match v5 keys; ``repro cache gc`` deletes them)
#: 6: the ``allocator`` strategy axis joined the request (and the cached
#:    summary shape grew an ``allocator`` field) — v5 entries, keyed
#:    without a strategy, never match
CACHE_VERSION = 6


@dataclass(frozen=True)
class ExperimentRequest:
    """One allocation experiment, keyable and picklable.

    Attributes:
        ir_text: canonical textual ILOC of the input function
            (``function_to_text``; round-trips exactly).
        machine: target register file (and default cost model for the
            convenience accessors on the summary).
        mode: renumber splitting policy.
        optimize_first: run the LVN/LICM/DCE pipeline before allocation.
        biased / lookahead / coalesce_splits / optimistic: the allocator
            heuristic flags (Sections 4.2–4.3).
        scheme: name of a Section 6 splitting scheme from
            ``repro.regalloc.splitting.SCHEMES``; when set, the scheme's
            mode and pre-split hook are used (schemes without a
            pre-split hook should be submitted as plain ``mode``
            requests so their cache entries are shared).
        allocator: the allocation strategy
            (``repro.regalloc.ALLOCATOR_NAMES`` — ``iterated`` runs the
            paper's Chaitin/Briggs loop, ``ssa`` the spill-everywhere
            strategy; the SSA strategy ignores ``mode``).
        args: interpreter arguments; used only when ``run``.
        run: interpret the allocated function and record dynamic counts.
        repeats: how many times to repeat the allocation for timing
            (timings are averaged by the consumer, never cached).
        cacheable: whether the summary may be served from / written to
            the persistent cache.  Timing-sensitive experiments (Table
            2) set ``False`` so wall-clock numbers are always live.
    """

    ir_text: str
    machine: MachineDescription
    mode: RenumberMode = RenumberMode.REMAT
    optimize_first: bool = False
    biased: bool = True
    lookahead: bool = True
    coalesce_splits: bool = True
    optimistic: bool = True
    scheme: str | None = None
    allocator: str = "iterated"
    args: tuple = ()
    run: bool = True
    repeats: int = 1
    cacheable: bool = True


def request_key(request: ExperimentRequest) -> str:
    """The canonical content hash (sha256 hex) of *request*."""
    h = hashlib.sha256()
    parts = (
        f"v{CACHE_VERSION}",
        f"int_regs={request.machine.int_regs}",
        f"float_regs={request.machine.float_regs}",
        f"mode={request.mode.value}",
        f"optimize_first={int(request.optimize_first)}",
        f"biased={int(request.biased)}",
        f"lookahead={int(request.lookahead)}",
        f"coalesce_splits={int(request.coalesce_splits)}",
        f"optimistic={int(request.optimistic)}",
        f"scheme={request.scheme or '-'}",
        f"allocator={request.allocator}",
        f"args={request.args!r}",
        f"run={int(request.run)}",
    )
    h.update("\n".join(parts).encode())
    h.update(b"\nir:\n")
    h.update(request.ir_text.encode())
    return h.hexdigest()


@dataclass
class TimingSample:
    """Wall-clock profile of one allocation run (Table 2 shape)."""

    cfa: float
    total: float
    #: per-round ``{renum, build, costs, color, spill}`` seconds
    rounds: list[dict[str, float]] = field(default_factory=list)
    #: ``clone=True`` deep-copy seconds, reported apart from the phases
    #: so timing comparisons against in-place runs stay clean
    clone: float = 0.0


@dataclass
class TimingReport:
    """All timing samples of one request (``repeats`` entries)."""

    samples: list[TimingSample] = field(default_factory=list)


@dataclass
class AllocationSummary:
    """Everything an experiment harness needs from one allocation.

    Deliberately *not* the allocated function: summaries are small,
    picklable, and cost-model independent.  Wall-clock data lives only
    in :attr:`timing`, which is stripped before a summary enters the
    persistent cache — cached entries answer "what code did the
    allocator produce", never "how long did it take today".
    """

    key: str
    function_name: str
    machine_name: str
    int_regs: int
    float_regs: int
    mode: RenumberMode
    stats: AllocationStats
    rounds: int
    #: instructions in the input function (after parsing)
    code_size: int
    #: instructions in the allocated function
    allocated_size: int
    #: the strategy that produced the coloring (``iterated`` | ``ssa``)
    allocator: str = "iterated"
    #: dynamic counts by instrumentation class (``None`` if not run)
    counts: dict[CountClass, int] | None = None
    steps: int | None = None
    output: tuple | None = None
    #: live wall-clock samples; ``None`` on a cache hit
    timing: TimingReport | None = None

    def cycles(self, machine: MachineDescription) -> int:
        """Total dynamic cycles under *machine*'s cost model."""
        assert self.counts is not None, "request did not interpret"
        return machine.cycles(self.counts)

    def class_cycles(self, machine: MachineDescription
                     ) -> dict[CountClass, int]:
        """Per-class dynamic cycles under *machine*'s cost model."""
        assert self.counts is not None, "request did not interpret"
        return {cls: count * machine.class_cost(cls)
                for cls, count in self.counts.items()}

    def without_timing(self) -> "AllocationSummary":
        """The cache-safe copy: identical, minus wall-clock data."""
        if self.timing is None:
            return self
        from dataclasses import replace

        return replace(self, timing=None)
