"""The ``serve-mix`` workload: open-loop traffic against ``repro serve``.

Each launch starts a fresh ``repro serve --jobs 2 --cache-dir <empty>``
(otherwise at its defaults), fills the hot set — 16 suite kernels x
{chaitin, remat} at 8+8 registers — so that the pool is warm and those
answers sit in the engine's in-memory memo, then sends the launch's
slice of the run's schedule from one asyncio loop over one pipelined
connection, open loop at ``RATE`` requests per second:

* 80% hits, drawn from the hot set in a seeded order;
* 20% misses, each a distinct seeded (suite kernel, int and float
  registers in 4..24, Old / New / SSA) spec — executed on the warm pool
  and written to the cache.

Latency runs from a request's due time to its reply, so a stall also
charges the requests queued behind it.  The traced run adds
``--access-log`` and ``--flight-slots`` and reads the ``metrics`` and
``debug`` operations.
"""

from __future__ import annotations

import asyncio
import json
import random
import select
import subprocess
import sys
import time
from statistics import median

from common import (PER_LAYER, ROOT, SERVE_PHASES, BenchError, child_env,
                    fingerprint, fresh_dir, quantile, report, say, tail,
                    tree_peak_rss_mb)
from repro.benchsuite import ALL_KERNELS
from repro.engine import ExperimentEngine, ExperimentFailure
from repro.interp import run_function
from repro.serve import protocol

RATE = 30.0
#: one miss in every block of this many requests (20% misses)
BLOCK = 5
#: fresh servers per untraced run; setup_s is the median of their set-ups
LAUNCHES = 3
HOT_KERNELS = [k.name for k in ALL_KERNELS[::3]]
HOT_SPECS = [{"kernel": name, "int_regs": 8, "float_regs": 8, "mode": mode}
             for name in HOT_KERNELS for mode in ("chaitin", "remat")]
REGISTERS = (4, 24)
DISCIPLINES = {"old": {"mode": "chaitin"}, "new": {"mode": "remat"},
               "ssa": {"allocator": "ssa"}}
#: replies per class re-checked byte for byte against an in-process engine
SAMPLE = 6
#: generator lateness p99 beyond this marks the run invalid
LATE_LIMIT_MS = 20.0
BOOT_TIMEOUT = 60.0
REPLY_TIMEOUT = 60.0


def setup(seed: int) -> dict:
    """Interpreter outputs of every suite kernel, unallocated."""
    return {k.name: list(run_function(k.compile(), args=list(k.args)).output)
            for k in ALL_KERNELS}


def _shuffled(rng: random.Random, values: list, count: int) -> list:
    """*count* items from back-to-back seeded permutations of *values*:
    every value appears equally often, give or take one."""
    out: list = []
    while len(out) < count:
        out += rng.sample(values, len(values))
    return out[:count]


def _schedule(seed: int, launches: int, per_launch: int) -> list[list]:
    """Per launch, ``per_launch`` (class, spec) pairs with an exact miss
    share: hits from the hot set, misses distinct across the run.  Miss
    kernels, register counts and disciplines each walk seeded
    permutations, so every run draws the same mix of miss costs."""
    rng = random.Random(f"serve/{seed}")
    total = -(-per_launch // BLOCK) * launches
    registers = list(range(REGISTERS[0], REGISTERS[1] + 1))
    draws = zip(_shuffled(rng, [k.name for k in ALL_KERNELS], total),
                _shuffled(rng, registers, total),
                _shuffled(rng, registers, total),
                _shuffled(rng, sorted(DISCIPLINES), total))
    seen = {json.dumps(s, sort_keys=True) for s in HOT_SPECS}
    schedule = []
    for _ in range(launches):
        # one miss at a seeded place in every block: misses never bunch
        # up, so how long they queue behind each other does not vary
        classes = []
        for start in range(0, per_launch, BLOCK):
            size = min(BLOCK, per_launch - start)
            slot = rng.randrange(size)
            classes += ["miss" if i == slot else "hit" for i in range(size)]
        part = []
        for cls in classes:
            if cls == "hit":
                part.append(("hit", rng.choice(HOT_SPECS)))
                continue
            kernel, int_regs, float_regs, discipline = next(draws)
            spec = {"kernel": kernel, "int_regs": int_regs,
                    "float_regs": float_regs, **DISCIPLINES[discipline]}
            while json.dumps(spec, sort_keys=True) in seen:
                spec["float_regs"] = rng.randint(*REGISTERS)
            seen.add(json.dumps(spec, sort_keys=True))
            part.append(("miss", spec))
        schedule.append(part)
    return schedule


def _envelope(rid: str, op: str, spec: dict | None = None) -> bytes:
    obj = {"v": 1, "id": rid, "op": op}
    if spec is not None:
        obj["request"] = spec
    return protocol.encode_line(obj)


class _Launch:
    """One server process, its set-up and its slice of the schedule."""

    def __init__(self, index: int, schedule, traced: bool) -> None:
        self.index = index
        self.schedule = schedule
        self.traced = traced
        self.sent: dict[str, float] = {}
        self.due: dict[str, float] = {}
        self.replies: dict[str, tuple[float, dict]] = {}
        self.metrics: list[dict] = []
        self.debug: dict | None = None
        work = fresh_dir(f"serve-{index}")
        self.access_log = work / "access.jsonl"
        cmd = [sys.executable, "-m", "repro", "serve", "--jobs", "2",
               "--cache-dir", str(work / "cache")]
        if traced:
            cmd += ["--access-log", str(self.access_log), "--flight-slots",
                    str(len(schedule) + len(HOT_SPECS) + 64)]
        start = time.perf_counter()
        with open(work / "stderr.log", "wb") as stderr:
            self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                         stdout=subprocess.PIPE,
                                         stderr=stderr)
        try:
            port = self._announced_port()
            asyncio.run(self._converse(port, start))
            self.proc.wait(timeout=30)
        finally:
            self._stop()

    def _announced_port(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], BOOT_TIMEOUT)
        line = self.proc.stdout.readline().decode() if ready else ""
        if not line.startswith("# serving on "):
            raise BenchError(f"server did not announce its port: {line!r}")
        return int(line.rsplit(":", 1)[1])

    def _stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()

    async def _converse(self, port: int, start: float) -> None:
        loop = asyncio.get_running_loop()
        reader, writer = await asyncio.open_connection("127.0.0.1", port,
                                                       limit=1 << 26)
        pending: dict[str, asyncio.Future] = {}

        async def read_replies():
            while True:
                line = await reader.readline()
                if not line:
                    return
                obj = json.loads(line)
                self.replies[obj["id"]] = (loop.time(), obj)
                future = pending.pop(obj["id"], None)
                if future is not None and not future.done():
                    future.set_result(obj)

        async def call(rid: str, op: str, spec=None):
            pending[rid] = loop.create_future()
            writer.write(_envelope(rid, op, spec))
            await writer.drain()
            try:
                return await asyncio.wait_for(pending[rid], REPLY_TIMEOUT)
            except asyncio.TimeoutError:
                raise BenchError(f"no reply to {op} {rid} within "
                                 f"{REPLY_TIMEOUT:g} s") from None

        reader_task = asyncio.create_task(read_replies())
        try:
            # set-up: the hot set, pipelined; the pool warms up on it
            self.hot = await asyncio.gather(*(
                call(f"{self.index}-hot{i}", "allocate", spec)
                for i, spec in enumerate(HOT_SPECS)))
            self.setup_s = time.perf_counter() - start
            self.metrics.append((await call("m0", "metrics"))["result"])

            t0 = loop.time() + 0.05
            waiters = []
            for i, (_cls, spec) in enumerate(self.schedule):
                rid = f"{self.index}-{i}"
                due = t0 + i / RATE
                delay = due - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                self.due[rid] = due
                pending[rid] = loop.create_future()
                writer.write(_envelope(rid, "allocate", spec))
                self.sent[rid] = loop.time()
                await writer.drain()
                waiters.append(pending[rid])
            self.outstanding = sum(1 for w in waiters if not w.done())
            await asyncio.wait(waiters, timeout=REPLY_TIMEOUT)
            self.metrics.append((await call("m1", "metrics"))["result"])
            if self.traced:
                self.debug = (await call("d0", "debug"))["result"]
            self.peak_rss_mb = tree_peak_rss_mb(self.proc.pid)
            await call("s0", "shutdown")
        finally:
            writer.close()
            await writer.wait_closed()
            reader_task.cancel()
            try:
                await reader_task
            except (asyncio.CancelledError, ConnectionError):
                pass

    def ids(self):
        for i, (cls, spec) in enumerate(self.schedule):
            yield f"{self.index}-{i}", cls, spec


def _counter_delta(launch: _Launch, name: str) -> int:
    before, after = (m["counters"].get(name, 0) for m in launch.metrics)
    return after - before


def run(references: dict, args, setup_s: float):
    launches_n = 2 if args.trace else LAUNCHES
    per_launch = max(1, round(RATE * args.seconds / launches_n))
    launches = [_Launch(i, part, bool(args.trace) and i % 2 == 1)
                for i, part in enumerate(_schedule(args.seed, launches_n,
                                                   per_launch))]

    errors: list[str] = []
    latency = {"hit": [], "miss": []}
    lateness = []
    failed = attempted = 0
    steps = 0
    stat_sums: dict[str, int] = {}
    for launch in launches:
        for i, obj in enumerate(launch.hot):
            spec = HOT_SPECS[i]
            if not obj.get("ok") or obj["result"]["output"] \
                    != references[spec["kernel"]]:
                errors.append(f"hot-set reply {spec} is wrong")
        for rid, cls, spec in launch.ids():
            attempted += 1
            lateness.append(launch.sent[rid] - launch.due[rid])
            if rid not in launch.replies:
                failed += 1
                continue
            received, obj = launch.replies[rid]
            if not obj.get("ok"):
                failed += 1
                continue
            if obj["result"]["output"] != references[spec["kernel"]]:
                failed += 1
                errors.append(f"{rid}: output differs from the "
                              f"unallocated reference")
                continue
            if not launch.traced:
                latency[cls].append(received - launch.due[rid])
            steps += obj["result"]["steps"]
            if cls == "miss":
                for name, value in obj["result"]["stats"].items():
                    stat_sums[name] = stat_sums.get(name, 0) + value
    errors += _byte_identity(args.seed, launches)

    untraced = [launch for launch in launches if not launch.traced]
    hits, misses = latency["hit"], latency["miss"]
    all_latency = hits + misses
    late_p99 = quantile(lateness, 99) * 1000.0
    outstanding = max(launch.outstanding for launch in launches)
    valid = late_p99 <= LATE_LIMIT_MS
    setups = [launch.setup_s for launch in untraced]
    rss = median([launch.peak_rss_mb for launch in untraced])
    say(f"serve-mix: {len(launches)} launches x {per_launch} requests at "
        f"{RATE:g}/s open loop, one miss in every {BLOCK}")
    report("hit_p50_ms", median(hits) * 1000.0, "ms")
    report("miss_p50_ms", median(misses) * 1000.0, "ms")
    report("all_p50_ms", median(all_latency) * 1000.0, "ms")
    for cls, values in latency.items():
        found = tail(values)
        if found is not None:
            say(f"  {cls}_tail_ms p{found[0]:.1f} = {found[1] * 1000.0:.4f} "
                f"ms (n={found[2]})")
    report("setup_s", median(setups), "s")
    report("peak_rss_mb", rss, "MB")
    report("lateness_p99_ms", late_p99, "ms")
    say(f"  outstanding at schedule end: {outstanding}; "
        f"run valid: {str(valid).lower()}"
        + ("" if valid else " (the generator fell behind)"))
    fingerprint({
        "sent.hits": sum(1 for _, cls, _ in _all_ids(launches)
                         if cls == "hit"),
        "sent.misses": sum(1 for _, cls, _ in _all_ids(launches)
                           if cls == "miss"),
        "engine.executed": sum(_counter_delta(launch, "engine.executed")
                               for launch in launches),
        "engine.cache_hits": sum(_counter_delta(launch, "engine.cache_hits")
                                 for launch in launches),
        # a hit arriving while an identical one is in flight is answered
        # by dedup instead of the memo; the sum does not depend on timing
        "engine.memo_hits+dedup": sum(
            _counter_delta(launch, name) for launch in launches
            for name in ("engine.memo_hits", "engine.deduplicated",
                         "serve.deduplicated")),
        "interp.steps": steps, "alloc": stat_sums})
    for error in errors:
        say(f"  CHECK FAILED: {error}")

    values = {"setup_s": median(setups), "peak_rss_mb": rss,
              "t1cold.new.miss_ms": median(misses) * 1000.0,
              "t2.old.hit_ms": median(hits) * 1000.0,
              "t1warm.ssa.all_ms": median(all_latency) * 1000.0}
    if args.trace:
        values = _traced_values(launches, median(all_latency))
    return not errors and not failed, attempted, failed, values


def _all_ids(launches):
    for launch in launches:
        yield from launch.ids()


def _byte_identity(seed: int, launches) -> list[str]:
    """A seeded sample of replies must be byte-identical to an
    in-process engine run of the same requests."""
    rng = random.Random(f"serve-sample/{seed}")
    sample = []
    for cls in ("hit", "miss"):
        ids = [(launch, rid, spec) for launch in launches
               for rid, c, spec in launch.ids()
               if c == cls and rid in launch.replies]
        sample += rng.sample(ids, min(SAMPLE, len(ids)))
    engine = ExperimentEngine(jobs=1, use_cache=False)
    summaries = engine.run_many([protocol.request_from_json(spec)
                                 for _, _, spec in sample])
    errors = []
    for (launch, rid, _), summary in zip(sample, summaries):
        if isinstance(summary, ExperimentFailure):
            errors.append(f"{rid}: the in-process engine failed too")
            continue
        local = protocol.dumps(protocol.summary_to_json(summary))
        served = protocol.dumps(launch.replies[rid][1].get("result"))
        if local != served:
            errors.append(f"{rid}: served bytes differ from the "
                          f"in-process engine")
    return errors


def _traced_values(launches, untraced_p50: float) -> dict[str, float]:
    traced = [launch for launch in launches if launch.traced]
    classes = {}
    for launch in traced:
        for rid, cls, _ in launch.ids():
            classes[rid] = cls
    phases = {(cls, phase): [] for cls in ("hit", "miss")
              for phase in SERVE_PHASES}
    cache_put = []
    traced_latency = []
    for launch in traced:
        for line in launch.access_log.read_text().splitlines():
            record = json.loads(line)
            cls = classes.get(record["client_id"])
            if cls is None or record["op"] != "allocate":
                continue
            for phase in SERVE_PHASES:
                phases[(cls, phase)].append(record["phases"][phase])
            if cls == "miss":
                cache_put.append(record["cache_put_s"])
        for rid, cls, _ in launch.ids():
            if rid in launch.replies:
                traced_latency.append(launch.replies[rid][0]
                                      - launch.due[rid])
    layers: dict[str, float] = {}
    for (cls, phase), values in phases.items():
        layers[f"serve.{cls}.{phase}_ms"] = median(values) * 1000.0
    layers["engine.cache_put_ms"] = median(cache_put) * 1000.0

    batches = sum(_counter_delta(launch, "serve.batches")
                  for launch in traced)
    batched = sum(m["histograms"].get("serve.batch_size", {}).get("total", 0)
                  * (1 if k else -1) for launch in traced
                  for k, m in enumerate(launch.metrics))
    layers["serve.batches"] = batches
    layers["serve.batch_size"] = batched / batches
    for name in ("engine.executed", "engine.memo_hits",
                 "engine.cache_hits", "pool.spawned", "pool.reused"):
        layers[name] = sum(_counter_delta(launch, name) for launch in traced)

    dispatch, worker = [], {"parse": [], "allocate": [], "interpret": []}
    for launch in traced:
        for entry in launch.debug["slowest"]:
            if classes.get(entry["access"]["client_id"]) != "miss":
                continue
            for attempt in _find(entry["trace"], "attempt"):
                for exec_span in _find(attempt, "exec"):
                    dispatch.append(_dur(attempt) - _dur(exec_span))
                    for child in exec_span["children"]:
                        if child["name"] in worker:
                            worker[child["name"]].append(_dur(child))
    layers["pool.dispatch_ms"] = median(dispatch) * 1000.0
    for name, values in worker.items():
        layers[f"worker.{name}_ms"] = median(values) * 1000.0
    layers["obs.overhead_pct"] = (median(traced_latency) / untraced_p50
                                  - 1.0) * 100.0
    say("serve-mix per-layer (traced launch; times are p50s):")
    for name in sorted(layers):
        report(name, layers[name], PER_LAYER[name])
    return layers


def _find(span: dict, name: str):
    """Every descendant span payload named *name*."""
    for child in span.get("children", ()):
        if child["name"] == name:
            yield child
        else:
            yield from _find(child, name)


def _dur(span: dict) -> float:
    return span["end"] - span["start"]
