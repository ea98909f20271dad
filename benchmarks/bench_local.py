"""Benchmark the local-allocator baseline against the coloring pipeline.

Quantifies the paper's closing Section 5.4 remark: graph coloring is not
competitive with "the fast, local techniques used in non-optimizing
compilers" in *compile time*, and decisively better in *code quality*.
"""

import pytest

from repro.benchsuite import ALL_KERNELS, KERNELS_BY_NAME
from repro.interp import run_function
from repro.machine import standard_machine
from repro.regalloc import allocate, allocate_local

from .conftest import save_result

MACHINE = standard_machine()


@pytest.fixture(scope="module")
def comparison():
    rows = []
    for kernel in ALL_KERNELS:
        local = allocate_local(kernel.compile(), machine=MACHINE)
        global_ = allocate(kernel.compile(), machine=MACHINE)
        run_l = run_function(local.function, args=list(kernel.args),
                             max_steps=5_000_000)
        run_g = run_function(global_.function, args=list(kernel.args))
        rows.append((kernel.name, MACHINE.cycles(run_l.counts),
                     MACHINE.cycles(run_g.counts),
                     local.trace.duration, global_.trace.duration))
    return rows


def test_local_vs_global(benchmark, comparison, results_dir):
    total_l = sum(r[1] for r in comparison)
    total_g = sum(r[2] for r in comparison)
    time_l = sum(r[3] for r in comparison)
    time_g = sum(r[4] for r in comparison)
    lines = [
        "Local (per-block write-through) vs global (coloring) allocation",
        "",
        f"suite dynamic cycles:   local {total_l:,}   "
        f"global {total_g:,}   (local {total_l / total_g:.1f}x slower "
        f"code)",
        f"suite allocation time:  local {time_l * 1000:.0f} ms   "
        f"global {time_g * 1000:.0f} ms   (local "
        f"{time_g / max(time_l, 1e-9):.0f}x faster to allocate)",
    ]
    save_result(results_dir, "local_vs_global", "\n".join(lines))

    # the paper's trade-off, both directions
    assert total_l > 2 * total_g
    assert time_l < time_g

    kernel = KERNELS_BY_NAME["sgemm"]
    benchmark(lambda: allocate_local(kernel.compile(), machine=MACHINE))


def test_global_allocation_speed_baseline(benchmark):
    kernel = KERNELS_BY_NAME["sgemm"]
    benchmark(lambda: allocate(kernel.compile(), machine=MACHINE))
