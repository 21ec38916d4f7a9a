"""The metrics summary, folded at snapshot time, and its histogram.

Nothing records a metric while a run executes.  :func:`fold_metrics`
reads three sources once the run is over: the causal span graph
(message sizes and delivery times, credit waits, ops, signals, lock
waits, the epoch records), the integers each layer keeps always-on
(sends per kind, gate deferrals, FIFO and lock-queue high-water marks,
per-window visits, pair tests, board applications), and the two
:class:`Histogram` series no span holds (the reliability layer's ack
round trips, the baseline scan server's grant costs).

Naming convention: dotted lowercase paths, ``subsystem.metric`` or
``subsystem.detail.metric`` (``fabric.sends.rdma``,
``epoch.lock.defer_us``, ``omega.grants_recv``).  Metric names ending
in ``_us`` are histograms of virtual microseconds.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, defaultdict
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mpi.runtime import MPIRuntime

__all__ = [
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS_US",
    "BYTES_BUCKETS",
    "quantile_from_snapshot",
    "fold_metrics",
]

#: Default fixed histogram bucket upper bounds, in virtual µs.  Spans
#: intranode notification latency (~1 µs) through multi-ms application
#: phases; the last implicit bucket is +inf (overflow).
DEFAULT_LATENCY_BUCKETS_US: tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 100000,
)

#: Bucket bounds for message-size histograms (bytes).
BYTES_BUCKETS: tuple[float, ...] = (8, 64, 512, 4096, 65536, 1 << 20, 8 << 20)


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


def _snapshot(name: str, values: Iterable[float],
              bounds: Iterable[float] = DEFAULT_LATENCY_BUCKETS_US) -> dict:
    """The snapshot of a histogram fed ``values`` in the order given: a
    float ``sum`` depends on it, so every caller passes event order."""
    h = Histogram(name, bounds)
    for v in values:
        h.observe(v)
    return h.snapshot()


def _ended(spans: list) -> list[float]:
    """Durations of the ended ``spans`` in the order they ended (ties in
    the order they began)."""
    ended = sorted((s for s in spans if s.t1 is not None), key=lambda s: (s.t1, s.sid))
    return [s.t1 - s.t0 for s in ended]


def fold_metrics(runtime: "MPIRuntime") -> dict:
    """The JSON-stable metrics summary of a finished ``metrics=True``
    run, plus the §VII-D step profile under ``"profile"`` and the
    counter-signal engine's nonzero per-window board snapshots under
    ``"signal_board"``."""
    from ..rma.notify import SignalChannel, row_items

    rec, fabric, engines = runtime.causal, runtime.fabric, runtime.engines
    stats = runtime.stats()
    states = [ws for eng in engines for ws in eng.states.values()]
    # Every rank runs the same engine: an ω one or the counter-signal one.
    omega = not engines[0].supports_notified_access
    wire = "omega" if omega else "signal"
    spans: dict[str, list] = defaultdict(list)
    for span in rec.spans:
        spans[span.kind].append(span)
    counters = Counter({
        "engine.sweep.window_visits": sum(eng.windows_visited for eng in engines),
        "engine.degraded": sum(getattr(eng, "degraded", False) for eng in engines),
        "omega.dup_grants_ignored" if omega else "signal.dup_ignored":
            stats.dup_grants_ignored,
        "omega.grants_recv" if omega else "signal.recv": sum(ws.board.applied for ws in states),
        "omega.matches": sum(eng.pairs_ready for eng in engines),
        "omega.wait_for_grant": sum(eng.pairs_waiting for eng in engines),
        "rma.ops_issued": len(spans["op"]),
        "signal.sent": len(spans["signal"]),
        "fc.stalls": stats.fc_stalls,
        "nic.attention_stalls": stats.faults_injected.get("stalls", 0),
        "nic.attention_deferred": sum(gate.deferred for gate in fabric.attention),
        "locks.grants": stats.lock_grants,
        "locks.requests": stats.lock_grants + sum(ws.lock_mgr.queue_depth for ws in states),
        "rel.retransmissions": stats.retransmissions,
        "rel.dup_suppressed": stats.dup_suppressed,
        "rel.acks_sent": stats.acks_sent,
        "rel.delivery_failures": stats.delivery_failures,
        "fifo.sent": fabric.sends["notify"],
        "fifo.drained": runtime.profiler.steps[5].work,
    })
    counters.update({f"fabric.sends.{kind}": n for kind, n in fabric.sends.items()})
    for ws in states:
        counters[f"engine.sweep.visited.win{ws.gid}"] += ws.visits
    if omega:
        counters["omega.grants_sent"] = sum(
            v for ws in states for _peer, v in row_items(ws.board.outbound, SignalChannel.GRANT))
    rel = fabric.reliability
    if rel is not None:
        counters["rel.out_of_order"] = rel.out_of_order
    lock_waits = sorted((t1, t0, uid) for uid, waits in rec.waits.items()
                        for category, t0, t1 in waits if category == "lock_wait")
    series: dict[str, list[float]] = defaultdict(list, {
        "fabric.delivery_us": _ended(spans["msg"]),
        "fc.credit_wait_us": _ended(spans["fc_stall"]),
        f"{wire}.lock_grant_wait_us": [t1 - t0 for t1, t0, _uid in lock_waits],
    })
    for r in rec.epochs:  # in completion order
        counters[f"epoch.{r.kind}.completed"] += 1
        if r.activate_us is not None:
            if r.open_us is not None:
                series[f"epoch.{r.kind}.defer_us"].append(r.activate_us - r.open_us)
            series[f"epoch.{r.kind}.active_us"].append(r.complete_us - r.activate_us)
    counters = {name: value for name, value in counters.items() if value}
    # Fault and schedule-policy tallies are reported zeros included.
    counters.update({f"faults.{name}": value for name, value in stats.faults_injected.items()})
    if runtime.exploration is not None:
        counters.update(runtime.exploration.sched_counters())
    histograms = {name: _snapshot(name, values) for name, values in series.items()}
    histograms["fabric.msg_bytes"] = _snapshot(
        "fabric.msg_bytes", [s.meta["nbytes"] for s in spans["msg"]], BYTES_BUCKETS)
    for h in (getattr(rel, "ack_rtt", None), getattr(engines[0], "scan_cost", None)):
        if h is not None:
            histograms[h.name] = h.snapshot()
    fifos = [mw.fifo for mw in runtime.middlewares]
    # A gauge is the summed live depth now and the deepest any one got.
    gauges = {
        "fifo.depth": (sum(map(len, fifos)), max(f.max_depth for f in fifos)),
        "locks.queue_depth": (sum(ws.lock_mgr.queue_depth for ws in states),
                              max((ws.lock_mgr.max_depth for ws in states), default=0)),
    }
    summary: dict[str, Any] = {
        "virtual_time_us": runtime.sim.now,
        "counters": dict(sorted(counters.items())),
        "gauges": {name: {"value": value, "high_water": high}
                   for name, (value, high) in gauges.items() if high},
        "histograms": {name: h for name, h in sorted(histograms.items()) if h["count"]},
        "profile": {"sweeps": sum(eng.sweep_count for eng in engines),
                    **runtime.profiler.summary()},
    }
    boards = {f"rank{rank}.win{gid}": snap for rank, eng in enumerate(engines)
              if eng.supports_notified_access
              for gid in sorted(eng.states) if (snap := eng.states[gid].board.snapshot())}
    if boards:
        summary["signal_board"] = boards
    return summary
