"""The optimistic graph-coloring register allocator with rematerialization."""

from .allocator import (AllocationError, AllocationResult, AllocationStats,
                        allocate)
from .coalesce import CoalesceStats, build_coalesce_loop, coalesce_pass
from .domtree_color import color_dominance_tree
from .interference import InterferenceGraph, build_interference_graph
from .maxlive import choose_spill_everywhere, compute_block_maxlive
from .local import (LocalAllocationError, LocalAllocationResult,
                    allocate_local)
from .renumber import RenumberOutcome, run_renumber
from .select import SelectResult, find_partners, select
from .simplify import SimplifyResult, simplify
from .spillcode import SpillCodeStats, insert_spill_code
from .slots import SlotPackingResult, pack_spill_slots
from .spillcost import SpillCosts, compute_spill_costs
from .splitting import SCHEMES, SplittingScheme
from .strategy import (ALLOCATOR_NAMES, ALLOCATOR_STRATEGIES,
                       AllocationContext, AllocatorStrategy,
                       IteratedColoringStrategy, SSAStrategy, make_strategy)

__all__ = [
    "ALLOCATOR_NAMES",
    "ALLOCATOR_STRATEGIES",
    "AllocationContext",
    "AllocationError",
    "AllocationResult",
    "AllocationStats",
    "AllocatorStrategy",
    "CoalesceStats",
    "IteratedColoringStrategy",
    "SSAStrategy",
    "InterferenceGraph",
    "LocalAllocationError",
    "LocalAllocationResult",
    "RenumberOutcome",
    "SCHEMES",
    "allocate_local",
    "SplittingScheme",
    "SelectResult",
    "SimplifyResult",
    "SlotPackingResult",
    "pack_spill_slots",
    "SpillCodeStats",
    "SpillCosts",
    "allocate",
    "build_coalesce_loop",
    "build_interference_graph",
    "coalesce_pass",
    "choose_spill_everywhere",
    "color_dominance_tree",
    "compute_block_maxlive",
    "compute_spill_costs",
    "find_partners",
    "insert_spill_code",
    "make_strategy",
    "run_renumber",
    "select",
    "simplify",
]
