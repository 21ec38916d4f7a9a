"""Virtual-time-aware metrics primitives: counters, gauges, histograms.

The registry is the passive half of :mod:`repro.obs`: instrumented
subsystems (engines, fabric, NIC gates, the notification FIFO, flow
control, lock managers, the reliability layer) each hold a ``metrics``
attribute that is ``None`` when the runtime was built without
``metrics=True``.  Every hot-path hook is therefore a single attribute
check — the same pattern the causal recorder and the semantics
checker use — and recording never interacts with the
simulator (pure observation: enabling metrics cannot change a run's
virtual-time results).

Naming convention: dotted lowercase paths, ``subsystem.metric`` or
``subsystem.detail.metric`` (``fabric.sends.rdma``,
``epoch.lock.defer_us``, ``omega.grants_recv``).  Metric names ending
in ``_us`` are histograms of virtual microseconds.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simtime import Simulator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_US",
    "BYTES_BUCKETS",
    "quantile_from_snapshot",
]

#: Default fixed histogram bucket upper bounds, in virtual µs.  Spans
#: intranode notification latency (~1 µs) through multi-ms application
#: phases; the last implicit bucket is +inf (overflow).
DEFAULT_LATENCY_BUCKETS_US: tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 100000,
)

#: Bucket bounds for message-size histograms (bytes).
BYTES_BUCKETS: tuple[float, ...] = (8, 64, 512, 4096, 65536, 1 << 20, 8 << 20)


class Counter:
    """Monotonic event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """Last-set value plus its high-water mark."""

    __slots__ = ("name", "value", "high_water")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.high_water = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.high_water:
            self.high_water = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Gauge {self.name}={self.value} (hw {self.high_water})>"


class Histogram:
    """Fixed-bucket histogram with sum/min/max for mean and quantiles.

    ``bounds`` are inclusive upper bucket bounds; one extra overflow
    bucket collects everything above the last bound.  Buckets never
    change after construction, so two runs' histograms are directly
    comparable (and the snapshot serializes to a stable JSON shape).
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "min", "max")

    def __init__(self, name: str, bounds: Iterable[float] = DEFAULT_LATENCY_BUCKETS_US):
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError(f"histogram bounds must be strictly increasing: {bounds}")
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile from the bucket counts (upper-bound
        estimate; overflow reports the observed max)."""
        return _bucket_quantile(self.counts, self.bounds, self.count, self.max, q)

    def snapshot(self) -> dict:
        """JSON-stable summary of this histogram."""
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Histogram {self.name} n={self.count} mean={self.mean:.2f}>"


def _bucket_quantile(counts, bounds, count: int, vmax: float, q: float) -> float:
    """The one quantile estimator both the live :class:`Histogram` and
    its serialized snapshots go through (historically two copies that
    could — and did — drift apart in validation behavior).

    Upper-bound estimate: walk the cumulative counts to the first
    non-empty bucket at or past ``q * count`` and report its upper
    bound, clamped to the observed max so the estimate never exceeds any
    real sample; the overflow bucket reports the observed max.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if not count:
        return 0.0
    target = q * count
    seen = 0
    nbounds = len(bounds)
    for i, c in enumerate(counts):
        seen += c
        if seen >= target and c:
            return min(bounds[i], vmax) if i < nbounds else vmax
    return vmax


def quantile_from_snapshot(snap: dict, q: float) -> float:
    """Quantile estimate from a :meth:`Histogram.snapshot` dict (same
    estimator as :meth:`Histogram.quantile`, including ``q`` range
    validation)."""
    return _bucket_quantile(snap["counts"], snap["bounds"], snap["count"],
                            snap["max"], q)


class MetricsRegistry:
    """One registry per runtime: creates metrics on first touch.

    All mutator entry points (:meth:`inc`, :meth:`set_gauge`,
    :meth:`observe`) auto-create the named metric, so instrumentation
    sites never need registration boilerplate.
    """

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.created_us = sim.now
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- access / creation -------------------------------------------------
    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(
        self, name: str, bounds: Iterable[float] = DEFAULT_LATENCY_BUCKETS_US
    ) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name, bounds)
        return h

    # -- recording (hot path: one Python call per record — the accessor
    # runs on first touch only, and the update is inlined) ----------------
    def inc(self, name: str, n: int = 1) -> None:
        """Increment counter ``name`` by ``n``."""
        c = self._counters.get(name) or self.counter(name)
        c.value += n

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` (tracks its high-water mark)."""
        g = self._gauges.get(name) or self.gauge(name)
        g.value = value
        if value > g.high_water:
            g.high_water = value

    def observe(
        self, name: str, value: float, bounds: Iterable[float] = DEFAULT_LATENCY_BUCKETS_US
    ) -> None:
        """Record one sample into histogram ``name``."""
        h = self._histograms.get(name) or self.histogram(name, bounds)
        h.counts[bisect_left(h.bounds, value)] += 1
        h.count += 1
        h.total += value
        if value < h.min:
            h.min = value
        if value > h.max:
            h.max = value

    # -- reading -----------------------------------------------------------
    def value(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never touched)."""
        c = self._counters.get(name)
        return c.value if c is not None else 0

    def summary(self) -> dict:
        """JSON-stable snapshot of every metric (sorted names)."""
        return {
            "virtual_time_us": self.sim.now,
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {
                n: {"value": g.value, "high_water": g.high_water}
                for n, g in sorted(self._gauges.items())
            },
            "histograms": {
                n: h.snapshot() for n, h in sorted(self._histograms.items())
            },
        }
