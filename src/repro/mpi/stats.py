"""Runtime statistics: a post-run snapshot of fabric and engine counters.

Collects the observability data a performance engineer would ask the
middleware for: traffic volumes, flow-control pressure, registration
cache efficiency, lock-manager activity, epoch counts — and, when a
fault plan is active, the fault/reliability counters (injected faults,
retransmissions, suppressed duplicates, ack traffic).

Flow-control pressure is reported both in aggregate (``fc_stalls``, the
§VIII-B global symptom) and attributed: ``fc_max_queued`` is the deepest
backlog any single directed pair reached, and ``fc_pair_stalls`` maps
each pair that ever stalled to its ``(stall_count, max_queued)``.

The snapshot is genuinely frozen: the dict-valued fields are deep-copied
at collect time and wrapped in :class:`types.MappingProxyType`, so later
runtime activity (or caller mutation attempts) cannot silently alter a
stats object captured mid-run.  The observers' summary is not part of
the snapshot: it is :meth:`MPIRuntime.metrics_summary`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runtime import MPIRuntime

__all__ = ["RuntimeStats", "collect_stats"]


@dataclass(frozen=True)
class RuntimeStats:
    """Aggregate counters for one finished (or paused) run."""

    virtual_time_us: float
    messages_sent: int
    bytes_sent: int
    fc_stalls: int
    regcache_hits: int
    regcache_misses: int
    regcache_evictions: int
    lock_grants: int
    #: Epochs still live in any window state (0 after clean completion).
    live_epochs: int
    windows: int
    # -- flow-control attribution (§VIII-B) ------------------------------
    #: Deepest credit-wait backlog any single directed pair reached.
    fc_max_queued: int = 0
    #: (src, dst) -> (stall_count, max_queued) for pairs that stalled.
    fc_pair_stalls: dict = field(default_factory=dict)
    # -- fault injection / reliability (zero when no plan is active) -----
    #: Injector counters (drops, duplicates, corruptions, delays, ...).
    faults_injected: dict = field(default_factory=dict)
    retransmissions: int = 0
    dup_suppressed: int = 0
    acks_sent: int = 0
    delivery_failures: int = 0
    #: Replayed grant / signal updates discarded by the idempotent max().
    dup_grants_ignored: int = 0
    #: True once the adaptive engine fell back to conservative mode.
    degraded: bool = False

    @property
    def regcache_hit_rate(self) -> float:
        """Pin-cache hit fraction (0 when never exercised)."""
        total = self.regcache_hits + self.regcache_misses
        return self.regcache_hits / total if total else 0.0


def collect_stats(runtime: "MPIRuntime") -> RuntimeStats:
    """Snapshot the counters of a runtime."""
    fabric = runtime.fabric
    hits = misses = evictions = 0
    for rank in range(runtime.nranks):
        cache = fabric.regcache(rank)
        hits += cache.hits
        misses += cache.misses
        evictions += cache.evictions
    lock_grants = 0
    live_epochs = 0
    dup_grants = 0
    degraded = False
    for engine in runtime.engines:
        for ws in engine.states.values():
            lock_grants += ws.lock_mgr.grants
            live_epochs += len(ws.live_epochs())
            dup_grants += ws.board.dup_signals_ignored
        degraded = degraded or getattr(engine, "degraded", False)
    injector = fabric.injector
    rel = fabric.reliability
    fc_pairs = fabric.flow.pair_stats()
    return RuntimeStats(
        virtual_time_us=runtime.now,
        messages_sent=fabric.messages_sent,
        bytes_sent=fabric.bytes_sent,
        fc_stalls=sum([stalls for stalls, _ in fc_pairs.values()]),
        regcache_hits=hits,
        regcache_misses=misses,
        regcache_evictions=evictions,
        lock_grants=lock_grants,
        live_epochs=live_epochs,
        windows=len(runtime.window_groups),
        fc_max_queued=max([depth for _, depth in fc_pairs.values()], default=0),
        # Snapshot-time deep freeze: pair_stats()/counters return fresh
        # dicts, but the proxy also blocks caller-side mutation.
        fc_pair_stalls=MappingProxyType(fc_pairs),
        faults_injected=MappingProxyType(
            dict(injector.counters) if injector is not None else {}
        ),
        retransmissions=rel.retransmissions if rel is not None else 0,
        dup_suppressed=rel.dup_suppressed if rel is not None else 0,
        acks_sent=rel.acks_sent if rel is not None else 0,
        delivery_failures=rel.delivery_failures if rel is not None else 0,
        dup_grants_ignored=dup_grants,
        degraded=degraded,
    )
