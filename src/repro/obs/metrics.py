"""Named counters and histograms: the :class:`MetricsRegistry`.

The registry absorbs the flat stat bags that grew around the allocator
(:class:`~repro.regalloc.allocator.AllocationStats` and the engine's
:class:`~repro.engine.engine.EngineStats`) into one namespace of typed
metrics, and renders them with the one formatter shared by the CLI
``allocate`` stats line, trace summaries and the docs tables — no more
hand-built f-strings per call site.

Zero dependencies.  A histogram keeps count/total/min/max *and* a
fixed ladder of log-scaled buckets, so latency quantiles (p50/p90/p99)
are available server-side — the ``metrics`` protocol op, ``repro top``
and the Prometheus exposition (:func:`render_prometheus`) all read the
same :meth:`Histogram.snapshot`.  :func:`percentile` is the one
nearest-rank implementation shared by the bucketed estimate, the load
generator's exact client-side numbers, and the dashboards.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Iterable

#: the geometric bucket ladder every histogram shares: bucket ``i``
#: holds values in ``(BUCKET_BASE * BUCKET_GROWTH**(i-1),
#: BUCKET_BASE * BUCKET_GROWTH**i]``; bucket 0 is the underflow bucket
#: for values <= BUCKET_BASE.  With base 1µs and ~19% growth the 128
#: buckets span one microsecond to over an hour — every latency this
#: system measures — at sub-bucket (< 19%) quantile error.
BUCKET_BASE = 1e-6
BUCKET_GROWTH = 2.0 ** 0.25
N_BUCKETS = 128

_LOG_GROWTH = math.log(BUCKET_GROWTH)


def bucket_index(value: float) -> int:
    """The ladder bucket holding *value* (clamped to the ladder ends)."""
    if value <= BUCKET_BASE:
        return 0
    index = math.ceil(math.log(value / BUCKET_BASE) / _LOG_GROWTH - 1e-12)
    return min(max(index, 0), N_BUCKETS - 1)


def bucket_upper(index: int) -> float:
    """The inclusive upper bound of ladder bucket *index*."""
    return BUCKET_BASE * BUCKET_GROWTH ** index


def percentile(values: list[float], q: float) -> float:
    """The *q*-th percentile (0..100) by nearest-rank; 0.0 when empty.

    The one percentile definition in the codebase: the load generator's
    client-side latencies, the bucketed server-side histograms and
    ``repro top`` all use it, so their numbers are comparable.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      round(q / 100.0 * (len(ordered) - 1))))
    return ordered[rank]


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0) -> None:
        self.name = name
        self.value = value

    def inc(self, n: int = 1) -> None:
        self.value += n


class Histogram:
    """Count/total/min/max summary plus log-scaled quantile buckets.

    The bucket array is allocated lazily on the first observation, so
    registries full of never-observed histograms stay cheap; a single
    observation costs one :func:`bucket_index` ``log`` call on top of
    the summary updates.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._buckets: list[int] | None = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if self._buckets is None:
            self._buckets = [0] * N_BUCKETS
        self._buckets[bucket_index(value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Nearest-rank *q*-th percentile (0..100) estimated from the
        buckets; exact to within one bucket (< 19% relative error),
        clamped to the observed ``[min, max]``.  0.0 when empty."""
        if not self.count or self._buckets is None:
            return 0.0
        rank = max(0, min(self.count - 1,
                          round(q / 100.0 * (self.count - 1))))
        seen = 0
        for index, n in enumerate(self._buckets):
            seen += n
            if seen > rank:
                return min(max(bucket_upper(index), self.min), self.max)
        return self.max  # pragma: no cover - rank < count by clamping

    def merge(self, other: "Histogram") -> None:
        """Fold every observation of *other* into this histogram."""
        if not other.count:
            return
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self.merge_counts(other._buckets or [])

    def merge_counts(self, counts: list[int]) -> None:
        """Fold a bucket-count array (another histogram's ``buckets``
        snapshot field) into this histogram's buckets — the stitcher
        for snapshots shipped across processes."""
        if self._buckets is None:
            self._buckets = [0] * N_BUCKETS
        for index, n in enumerate(counts[:N_BUCKETS]):
            self._buckets[index] += n

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready summary.  Backward compatible: the historical
        count/total/min/max keys are always present — but an *empty*
        histogram reports ``min``/``max`` as ``None`` rather than a
        fake observation of 0.0."""
        if not self.count:
            return {"count": 0, "total": 0.0, "min": None, "max": None}
        return {"count": self.count, "total": self.total,
                "min": self.min, "max": self.max,
                "p50": self.quantile(50), "p90": self.quantile(90),
                "p99": self.quantile(99),
                "buckets": list(self._buckets or ())}


class MetricsRegistry:
    """A namespace of counters and histograms."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- access ---------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def histogram(self, name: str) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name)
        return histogram

    def counters(self) -> dict[str, int]:
        return {name: c.value for name, c in sorted(self._counters.items())}

    def histograms(self) -> dict[str, dict[str, Any]]:
        return {name: h.snapshot()
                for name, h in sorted(self._histograms.items())}

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready dump of every metric."""
        return {"counters": self.counters(),
                "histograms": self.histograms()}

    # -- absorption -----------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold *other*'s counters and histograms into this registry."""
        for name, counter in other._counters.items():
            self.counter(name).inc(counter.value)
        for name, histogram in other._histograms.items():
            self.histogram(name).merge(histogram)

    def absorb_dataclass(self, obj: Any, prefix: str) -> None:
        """Fold a stats dataclass's int fields into ``prefix.*`` counters
        (float fields become single-observation histograms)."""
        for field in dataclasses.fields(obj):
            value = getattr(obj, field.name)
            name = f"{prefix}.{field.name}"
            if isinstance(value, bool):
                self.counter(name).inc(int(value))
            elif isinstance(value, int):
                self.counter(name).inc(value)
            elif isinstance(value, float):
                self.histogram(name).observe(value)

    # -- rendering ------------------------------------------------------------

    def render_line(self, keys: Iterable[tuple[str, str]] | None = None
                    ) -> str:
        """One ``key=value`` line — the CLI stats-line format.

        *keys* maps metric names to display labels and fixes the order;
        by default every counter renders under its own name.
        """
        if keys is None:
            keys = [(name, name) for name in self.counters()]
        parts = []
        for name, label in keys:
            counter = self._counters.get(name)
            parts.append(f"{label}={counter.value if counter else 0}")
        return " ".join(parts)

    def render_summary(self, title: str | None = None) -> str:
        """A multi-line human-readable summary of every metric."""
        lines: list[str] = []
        if title:
            lines += [title, "-" * len(title)]
        names = list(self._counters) + list(self._histograms)
        width = max((len(n) for n in names), default=0)
        for name, value in self.counters().items():
            lines.append(f"{name:<{width}}  {value}")
        for name, h in sorted(self._histograms.items()):
            snap = h.snapshot()
            if not snap["count"]:
                lines.append(f"{name:<{width}}  count=0")
                continue
            lines.append(
                f"{name:<{width}}  count={snap['count']} "
                f"total={snap['total']:.6f} "
                f"min={snap['min']:.6f} max={snap['max']:.6f} "
                f"p50={snap['p50']:.6f} p99={snap['p99']:.6f}")
        return "\n".join(lines)


# -- Prometheus text exposition ----------------------------------------------

def _prom_name(name: str) -> str:
    """A metric name sanitized to the Prometheus charset."""
    safe = "".join(ch if ch.isalnum() or ch == "_" else "_"
                   for ch in name)
    if safe and safe[0].isdigit():
        safe = "_" + safe
    return f"repro_{safe}"


def _prom_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    return repr(float(value)) if isinstance(value, float) else str(value)


def render_prometheus(snapshot: dict[str, Any]) -> str:
    """Prometheus text exposition (v0.0.4) of a metrics snapshot.

    *snapshot* is the shape :meth:`MetricsRegistry.snapshot` (and the
    server's ``metrics`` op) produce: ``counters`` and ``histograms``
    maps, plus any extra top-level numeric keys (``queue_depth``,
    ``inflight``) which are exposed as gauges.  Counters gain the
    conventional ``_total`` suffix; histograms render as summaries
    (``quantile`` labels from the bucketed estimate, plus ``_sum`` and
    ``_count``).
    """
    lines: list[str] = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        prom = _prom_name(name) + "_total"
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {value}")
    for name, snap in sorted(snapshot.get("histograms", {}).items()):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} summary")
        for q, label in ((snap.get("p50"), "0.5"), (snap.get("p90"), "0.9"),
                         (snap.get("p99"), "0.99")):
            if q is not None:
                lines.append(f'{prom}{{quantile="{label}"}} '
                             f"{_prom_value(q)}")
        lines.append(f"{prom}_sum {_prom_value(snap.get('total', 0.0))}")
        lines.append(f"{prom}_count {snap.get('count', 0)}")
    for name, value in sorted(snapshot.items()):
        if name in ("counters", "histograms") \
                or not isinstance(value, (int, float)) \
                or isinstance(value, bool):
            continue
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_prom_value(value)}"
                     if isinstance(value, float) else f"{prom} {value}")
    return "\n".join(lines) + "\n"


def metrics_from_allocation(result: Any) -> MetricsRegistry:
    """The registry view of one :class:`AllocationResult`.

    Absorbs every ``AllocationStats`` counter under ``alloc.*`` and the
    span-tree phase times as ``phase.*`` histograms (one observation
    per round), so counters and timings come from the same two sources
    of truth the trace export uses.
    """
    registry = MetricsRegistry()
    registry.absorb_dataclass(result.stats, "alloc")
    registry.counter("alloc.rounds").inc(result.rounds)
    root = result.trace
    for span in root.children_named("round"):
        for phase in ("renumber", "build", "costs", "color", "spill"):
            registry.histogram(f"phase.{phase}").observe(span.total(phase))
    registry.histogram("phase.cfa").observe(root.total("cfa"))
    registry.histogram("phase.clone").observe(root.total("clone"))
    registry.histogram("phase.total").observe(root.duration)
    return registry


#: the ``allocate`` stats line: metric name -> CLI label, in print order
ALLOCATE_LINE_KEYS: tuple[tuple[str, str], ...] = (
    ("alloc.rounds", "rounds"),
    ("alloc.n_spilled_ranges", "spilled"),
    ("alloc.n_remat_spills", "rematerialized"),
    ("alloc.n_splits_inserted", "splits"),
    ("alloc.n_copies_coalesced", "coalesced"),
)
