"""Shared pieces of the benchmark: the metric catalogue, statistics,
outside-in layer timers, set-up probes, memory readings and printing.

Nothing here imports ``repro``: the workload modules do, so that the
import itself can be timed as part of each workload's set-up.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import resource
import shutil
import subprocess
import sys
import time
from collections import defaultdict

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: scratch space for caches, logs and server state (git-ignored)
WORK = ROOT / ".perfbench_work"

#: end-to-end metrics: every workload reports each one.  The three
#: time slots carry one operation per workload, named in workload
#: order (tables . alloc-large . serve-mix); see README.md.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "t1cold.new.miss_ms": "ms",
    "t2.old.hit_ms": "ms",
    "t1warm.ssa.all_ms": "ms",
}

_REGALLOC_PHASES = ("clone", "cfa", "renumber", "build", "costs", "color",
                    "spill")
_ALLOC_COUNTS = ("rounds", "spilled_ranges", "remat_spills",
                 "splits_inserted", "copies_coalesced", "graph_builds",
                 "graph_patches")
SERVE_PHASES = ("parse", "admission", "queue_wait", "batch_wait",
                "execute", "respond")
DISCIPLINES = ("old", "new", "ssa")


def _per_layer() -> dict[str, str]:
    units: dict[str, str] = {}
    # tables
    for name in ("frontend.compile_ms", "experiments.requests_ms",
                 "experiments.assemble_ms", "experiments.render_ms",
                 "engine.key_ms", "engine.cache_get_ms",
                 "engine.cache_put_ms", "ir.parse_ms", "interp.run_ms"):
        units[name] = "ms"
    units["interp.steps"] = "count"
    for phase in ("cfa", "renumber", "build", "costs", "color", "spill",
                  "other"):
        units[f"regalloc.{phase}_ms"] = "ms"
    units["tables.traced_ms"] = "ms"
    units["tables.unattributed_ms"] = "ms"
    # alloc-large
    for d in DISCIPLINES:
        for phase in _REGALLOC_PHASES:
            units[f"regalloc.{d}.{phase}_s"] = "s"
        for count in _ALLOC_COUNTS:
            units[f"regalloc.{d}.{count}"] = "count"
    for name in ("ssa.construct_s", "remat.propagate_s", "remat.split_s",
                 "analysis.liveness_s", "analysis.liveness_sparse_s",
                 "regalloc.interference_s"):
        units[name] = "s"
    for name in ("passes.analyses_computed", "passes.analyses_reused",
                 "analysis.blocks_reanalyzed", "analysis.blocks_total"):
        units[name] = "count"
    units["alloc.traced_s"] = "s"
    units["alloc.unattributed_s"] = "s"
    # serve-mix
    for cls in ("hit", "miss"):
        for phase in SERVE_PHASES:
            units[f"serve.{cls}.{phase}_ms"] = "ms"
    units["serve.batches"] = "count"
    units["serve.batch_size"] = "req/batch"
    for name in ("engine.executed", "engine.memo_hits", "engine.cache_hits",
                 "pool.spawned", "pool.reused"):
        units[name] = "count"
    for name in ("pool.dispatch_ms", "worker.parse_ms",
                 "worker.allocate_ms", "worker.interpret_ms"):
        units[name] = "ms"
    # every workload
    units["obs.overhead_pct"] = "%"
    return units


#: per-layer metrics of the traced run; a workload reports 0 for the
#: layers it does not exercise
PER_LAYER = _per_layer()


class BenchError(RuntimeError):
    """A run that cannot produce a result (no sources, a server that does
    not answer): the command exits 1 without printing one."""


# -- statistics ---------------------------------------------------------------

def quantile(values, q: float) -> float:
    """Nearest-rank *q*-th percentile (0..100) of *values*."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(q / 100 * (len(ordered) - 1))))
    return ordered[rank]


def tail(values) -> tuple[float, float, int] | None:
    """The highest percentile with at least ten samples beyond it:
    ``(percentile, value, sample count)``, or ``None`` below 11 samples."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11], n


# -- outside-in layer timers --------------------------------------------------

class Probe:
    """Times calls into public functions from outside, by rebinding the
    name the caller looks up (a module global or a class attribute) to
    a timing wrapper.  :meth:`restore` puts every original back."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner: object, name: str, layer: str) -> None:
        raw = vars(owner)[name]
        static = isinstance(raw, staticmethod)
        func = raw.__func__ if static else raw
        seconds = self.seconds
        clock = time.perf_counter

        def timed(*args, **kwargs):
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                seconds[layer] += clock() - start

        setattr(owner, name, staticmethod(timed) if static else timed)
        self._undo.append((owner, name, raw))

    def restore(self) -> None:
        for owner, name, raw in reversed(self._undo):
            setattr(owner, name, raw)
        self._undo.clear()

    def take(self) -> dict[str, float]:
        """The accumulated seconds per layer, then reset."""
        taken = dict(self.seconds)
        self.seconds.clear()
        return taken


# -- set-up, memory, machine --------------------------------------------------

def import_path() -> None:
    """Make ``import repro`` resolve to this checkout's sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def probe_setup(workload: str, seed: int, count: int) -> list[float]:
    """Set up *workload* in *count* fresh interpreters, one after the
    other; each reports its own import-to-ready seconds (interpreter
    start-up is excluded)."""
    samples = []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=120, check=False)
        if out.returncode != 0:
            raise BenchError(f"set-up probe failed: {out.stderr.strip()}")
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_peak_rss_mb(pid: int) -> float:
    """Summed peak resident memory (VmHWM) of *pid* and its descendants."""
    total_kb = 0
    for proc in _descendants(pid) + [pid]:
        try:
            with open(f"/proc/{proc}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass  # exited between listing and reading
    return total_kb / 1024.0


def _descendants(pid: int) -> list[int]:
    """Every live descendant of *pid* (children of any of its threads)."""
    found, frontier = [], [pid]
    while frontier:
        parent = frontier.pop()
        kids = []
        for task in pathlib.Path(f"/proc/{parent}/task").glob("*"):
            try:
                kids += [int(tok) for tok in
                         (task / "children").read_text().split()]
            except OSError:
                pass  # the thread or process ended meanwhile
        found += kids
        frontier += kids
    return found


def machine() -> str:
    model = "?"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (f"nproc={os.cpu_count()} cpu={model!r} "
            f"python={platform.python_version()}")


def fresh_dir(name: str) -> pathlib.Path:
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def clean_work() -> None:
    shutil.rmtree(WORK, ignore_errors=True)


# -- printing -----------------------------------------------------------------

def say(line: str) -> None:
    print(line, flush=True)


def report(name: str, value: float, unit: str) -> None:
    """One human-readable metric line."""
    say(f"  {name:<34} {value:>14.4f} {unit}")


def fingerprint(counts: dict) -> None:
    say("fingerprint " + json.dumps(counts, sort_keys=True))


def result(correct: bool, attempted: int, failed: int,
           values: dict[str, float], units: dict[str, str]) -> str:
    """The final result line: every metric of *units*, in order (a
    per-layer metric the workload does not exercise reads 0)."""
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": float(values.get(name, 0.0)),
                           "unit": unit}
                    for name, unit in units.items()}})
