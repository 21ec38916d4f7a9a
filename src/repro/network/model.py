"""Network cost model: the tunable constants of the simulated fabric.

The defaults are calibrated against the numbers the paper reports for its
testbed (Mellanox ConnectX QDR InfiniBand, Nehalem nodes): §VIII states
that "any epoch hosting an MPI_PUT of 1 MB takes about 340 µs", and that
MPI_ACCUMULATE needs an internal rendezvous above 8 KB.  With the default
``internode_bw`` of 3100 bytes/µs (≈3.1 GB/s) and 2 µs base latency, a
1 MB put costs 2 + 1048576/3100 ≈ 340 µs.

All times are microseconds; all sizes are bytes; bandwidths are bytes/µs.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["NetworkModel"]


@dataclass(frozen=True)
class NetworkModel:
    """Parameters of the simulated interconnect.

    Attributes
    ----------
    internode_latency:
        One-way wire + NIC latency for messages between nodes.
    internode_bw:
        Internode link bandwidth (bytes/µs).
    intranode_latency:
        One-way latency through the shared-memory channel.
    intranode_bw:
        Shared-memory copy bandwidth (bytes/µs).
    eager_threshold:
        Messages at or below this size are sent eagerly; larger messages
        use a rendezvous (RTS/CTS) handshake costing one extra round trip.
    accumulate_rendezvous_threshold:
        Payload size above which accumulate-style operations require a
        target-side intermediate buffer and therefore a rendezvous that
        needs *host attention* at the target (§VIII-A: no overlap for
        large accumulates).
    control_bytes:
        Size charged for control packets (RTS/CTS, done, lock requests).
    notification_bytes:
        Size of the 64-bit intranode notification packets (§VII-D).
    pin_cost_per_kb:
        Memory-registration (pinning) cost per KiB for internode buffers
        missing the registration cache.
    pin_base_cost:
        Fixed part of a registration operation.
    regcache_capacity:
        Registration-cache capacity in bytes per rank (LRU).
    credits_per_peer:
        Flow-control credits per (source, destination) pair: the maximum
        number of unacknowledged packets in flight towards one peer; 0
        disables flow control.
    ack_latency:
        Delay after delivery before the sender's credit returns.
    host_attention_overhead:
        Processing cost charged when a control packet is handled by the
        target host CPU (lock grants, accumulate CTS).
    cas_processing:
        Target-side processing time for an atomic op application.
    baseline_scan_cost_us:
        Per-pending-item host cost the *legacy* (MVAPICH-style) engine
        pays each time it services a lock grant: the baseline scans its
        pending-state lists (queued lock waiters, live epochs, deferred
        lock backlog) inside the progress engine, so grant service time
        grows with the amount of outstanding state — exactly the
        O(pending) progress cost that §VII-B's constant-time ω-counter
        matching removes, and that "Quo Vadis MPI RMA?" documents for
        production implementations.  The redesigned engines never pay
        it.  Defaults to 0.0, which keeps the legacy engine's grants
        free of scan cost (all pre-existing figures are bit-identical);
        the ``--scaling`` benchmark turns it on to reproduce Fig. 12's
        throughput collapse under contention at scale.
    """

    internode_latency: float = 2.0
    internode_bw: float = 3100.0
    intranode_latency: float = 0.4
    intranode_bw: float = 6000.0
    eager_threshold: int = 16 * 1024
    accumulate_rendezvous_threshold: int = 8 * 1024
    control_bytes: int = 64
    notification_bytes: int = 8
    pin_cost_per_kb: float = 0.02
    pin_base_cost: float = 0.5
    regcache_capacity: int = 256 * 1024 * 1024
    credits_per_peer: int = 64
    ack_latency: float = 1.0
    host_attention_overhead: float = 0.3
    cas_processing: float = 0.2
    baseline_scan_cost_us: float = 0.0

    def transfer_time(self, nbytes: int, intranode: bool) -> float:
        """Serialization time (port occupancy) for ``nbytes``."""
        bw = self.intranode_bw if intranode else self.internode_bw
        return nbytes / bw

    def latency(self, intranode: bool) -> float:
        """One-way propagation latency."""
        return self.intranode_latency if intranode else self.internode_latency

    def one_way(self, nbytes: int, intranode: bool) -> float:
        """Uncontended end-to-end time for a single message."""
        return self.latency(intranode) + self.transfer_time(nbytes, intranode)

    def needs_rendezvous(self, nbytes: int) -> bool:
        """Whether a plain transfer of ``nbytes`` uses RTS/CTS."""
        return nbytes > self.eager_threshold

    def accumulate_needs_rendezvous(self, nbytes: int) -> bool:
        """Whether an accumulate operand of ``nbytes`` needs the
        attention-requiring intermediate-buffer rendezvous."""
        return nbytes > self.accumulate_rendezvous_threshold

    def with_overrides(self, **kwargs: object) -> "NetworkModel":
        """Return a copy with the given fields replaced."""
        from dataclasses import replace

        return replace(self, **kwargs)  # type: ignore[arg-type]


#: Calibration constants referenced throughout benchmarks and tests.
PAPER_1MB_PUT_US: float = 340.0
