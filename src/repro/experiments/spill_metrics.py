"""The spill-cost measurement methodology of Section 5.2.

"We tested each routine on a hypothetical 'huge' machine with 128
registers ... The difference between the huge results and the results for
one of the allocators targeted to our standard machine should equal the
number of cycles added by the allocator to cope with insufficient
registers."

Costs are decomposed by instrumentation class (load / store / copy / ldi /
addi) so Table 1's percentage-contribution columns can be reproduced.

Measurements are *requests* to the shared allocation-experiment engine
(:mod:`repro.engine`): each (kernel, machine, mode, flags) configuration
is content-hashed, deduplicated, optionally served from the persistent
cache, and executable in parallel.  Summaries store raw dynamic counts;
cycle pricing happens here, at the caller's cost model — which is why a
single huge-machine baseline run serves Table 1, the ablations and every
point of the register sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..benchsuite import Kernel
from ..engine import (AllocationSummary, ExperimentEngine,
                      ExperimentRequest, default_engine, expect_summary)
from ..ir import CountClass
from ..machine import MachineDescription, huge_machine
from ..remat import RenumberMode

#: the classes reported in Table 1, in column order
TABLE1_CLASSES = (CountClass.LOAD, CountClass.STORE, CountClass.COPY,
                  CountClass.LDI, CountClass.ADDI)


def kernel_request(kernel: Kernel, machine: MachineDescription,
                   mode: RenumberMode,
                   optimize_first: bool = False,
                   **overrides) -> ExperimentRequest:
    """The engine request measuring *kernel* on *machine* under *mode*.

    ``overrides`` forward to :class:`ExperimentRequest` (heuristic
    flags, ``scheme``, ``run``, ``repeats``, ``cacheable``).
    """
    return ExperimentRequest(
        ir_text=kernel.ir_text(),
        machine=machine, mode=mode, optimize_first=optimize_first,
        args=tuple(kernel.args), **overrides)


def baseline_request(kernel: Kernel,
                     optimize_first: bool = False) -> ExperimentRequest:
    """The huge-machine (128-register) zero-spill request of Section 5.2."""
    return kernel_request(kernel, huge_machine(), RenumberMode.CHAITIN,
                          optimize_first=optimize_first)


@dataclass
class SpillMeasurement:
    """Dynamic cycle accounting for one (kernel, machine, mode) triple."""

    kernel: str
    machine: str
    mode: RenumberMode
    #: cycles spent per class during the run (count * class cost)
    class_cycles: dict[CountClass, int]
    total_cycles: int
    steps: int
    summary: AllocationSummary

    def spill_cycles_vs(self, baseline: "SpillMeasurement") -> int:
        """Spill overhead relative to the huge-machine baseline."""
        return self.total_cycles - baseline.total_cycles

    def class_spill_cycles_vs(self, baseline: "SpillMeasurement",
                              cls: CountClass) -> int:
        return (self.class_cycles.get(cls, 0)
                - baseline.class_cycles.get(cls, 0))

    @staticmethod
    def from_summary(summary: AllocationSummary, kernel: str,
                     cost_machine: MachineDescription
                     ) -> "SpillMeasurement":
        """Price *summary*'s raw counts with *cost_machine*'s model."""
        class_cycles = summary.class_cycles(cost_machine)
        assert summary.steps is not None
        return SpillMeasurement(
            kernel=kernel, machine=summary.machine_name,
            mode=summary.mode, class_cycles=class_cycles,
            total_cycles=sum(class_cycles.values()),
            steps=summary.steps, summary=summary)


def measure(kernel: Kernel, machine: MachineDescription,
            mode: RenumberMode,
            cost_machine: MachineDescription | None = None,
            optimize_first: bool = False,
            engine: ExperimentEngine | None = None) -> SpillMeasurement:
    """Allocate *kernel* for *machine* under *mode*, run it, count cycles.

    *cost_machine* supplies the cycle-cost model (defaults to *machine*);
    the paper prices the huge-machine baseline run with the same cost
    table as the standard runs.  With *optimize_first* the LVN/LICM/DCE
    pipeline runs before allocation — approximating the optimized ILOC
    the paper's allocator consumed.  The work is submitted through
    *engine* (default: the process-wide memoizing engine), so repeated
    measurements of one configuration execute once.
    """
    cost_machine = cost_machine or machine
    engine = engine or default_engine()
    summary = engine.run(kernel_request(kernel, machine, mode,
                                        optimize_first=optimize_first))
    return SpillMeasurement.from_summary(summary, kernel.name, cost_machine)


def measure_baseline(kernel: Kernel,
                     cost_machine: MachineDescription,
                     optimize_first: bool = False,
                     engine: ExperimentEngine | None = None
                     ) -> SpillMeasurement:
    """The huge-machine (128-register) zero-spill baseline of Section 5.2."""
    return measure(kernel, huge_machine(), RenumberMode.CHAITIN,
                   cost_machine=cost_machine,
                   optimize_first=optimize_first, engine=engine)


@dataclass
class KernelComparison:
    """Old-vs-new spill costs for one kernel (one Table 1 row)."""

    kernel: Kernel
    old_spill: int
    new_spill: int
    #: percentage contribution per class, paper-style: positive numbers
    #: are improvements
    contributions: dict[CountClass, float] = field(default_factory=dict)

    @property
    def total_percent(self) -> float:
        """Total percentage improvement (Table 1's last column)."""
        if self.old_spill == 0:
            return 0.0
        return 100.0 * (self.old_spill - self.new_spill) / self.old_spill

    @property
    def differs(self) -> bool:
        return self.old_spill != self.new_spill


def comparison_requests(kernel: Kernel, machine: MachineDescription,
                        old_mode: RenumberMode = RenumberMode.CHAITIN,
                        new_mode: RenumberMode = RenumberMode.REMAT,
                        optimize_first: bool = False,
                        allocator: str = "iterated"
                        ) -> list[ExperimentRequest]:
    """The three requests behind one Table 1 row: baseline, old, new.

    *allocator* selects the strategy for the two measured runs; the
    huge-machine baseline always uses the default so its content hash
    (and cache entry) stays shared across every harness.
    """
    return [
        baseline_request(kernel, optimize_first=optimize_first),
        kernel_request(kernel, machine, old_mode,
                       optimize_first=optimize_first, allocator=allocator),
        kernel_request(kernel, machine, new_mode,
                       optimize_first=optimize_first, allocator=allocator),
    ]


def comparison_from_summaries(kernel: Kernel,
                              machine: MachineDescription,
                              baseline: AllocationSummary,
                              old: AllocationSummary,
                              new: AllocationSummary) -> KernelComparison:
    """Assemble one Table 1 row from the three measured summaries."""
    base = SpillMeasurement.from_summary(baseline, kernel.name, machine)
    old_m = SpillMeasurement.from_summary(old, kernel.name, machine)
    new_m = SpillMeasurement.from_summary(new, kernel.name, machine)
    old_spill = old_m.spill_cycles_vs(base)
    new_spill = new_m.spill_cycles_vs(base)
    contributions: dict[CountClass, float] = {}
    if old_spill != 0:
        for cls in TABLE1_CLASSES:
            delta = (old_m.class_spill_cycles_vs(base, cls)
                     - new_m.class_spill_cycles_vs(base, cls))
            contributions[cls] = 100.0 * delta / old_spill
    return KernelComparison(kernel=kernel, old_spill=old_spill,
                            new_spill=new_spill,
                            contributions=contributions)


def compare_kernel(kernel: Kernel, machine: MachineDescription,
                   old_mode: RenumberMode = RenumberMode.CHAITIN,
                   new_mode: RenumberMode = RenumberMode.REMAT,
                   optimize_first: bool = False,
                   engine: ExperimentEngine | None = None
                   ) -> KernelComparison:
    """Produce one Table 1 row for *kernel* on *machine*.

    A single-row call site has no partial table to render, so a
    quarantined request surfaces as
    :class:`~repro.engine.supervisor.ExperimentError`.
    """
    engine = engine or default_engine()
    baseline, old, new = (expect_summary(s) for s in engine.run_many(
        comparison_requests(kernel, machine, old_mode, new_mode,
                            optimize_first=optimize_first)))
    return comparison_from_summaries(kernel, machine, baseline, old, new)
