"""Per-peer reliable delivery under an unreliable (fault-injected) fabric.

The simulated fabric is lossless by construction, so none of the
engines' protocols carry their own loss handling — a single dropped
GrantUpdate or DonePacket would wedge an epoch forever.  This layer
restores the guarantees the engines were written against, the way real
middleware does over an unreliable transport:

- **sequencing** — every non-loopback fabric message gets a per
  (source, destination) sequence number;
- **ack / retransmit** — the receiver acks each sequence number it
  sees; the sender retransmits on a capped exponential backoff
  (the plan's :attr:`~repro.faults.plan.FaultPlan.retry`:
  ``rto_us``, ``backoff``, ``max_attempts``) and surfaces
  :class:`~repro.mpi.errors.RmaDeliveryError` with structured
  diagnostics when the budget exhausts;
- **duplicate suppression** — retransmissions that crossed a late ack,
  and injector-made ghost copies, are discarded before they reach the
  middleware, so handlers observe each logical packet exactly once
  (this is what keeps the ω-counter ``g += 1`` updates and the
  semantics checker free of false positives);
- **in-order admission** — out-of-order arrivals (a retransmission
  filling a gap behind already-arrived successors) are parked in a
  reorder buffer and admitted contiguously, preserving the per-pair
  FIFO the engine protocols assume.

The layer sits between the fabric's wire model and the middleware
delivery handlers; :class:`~repro.network.fabric.Fabric` calls
:meth:`track` / :meth:`on_attempt` / :meth:`on_wire_arrival` /
:meth:`on_ack` and the layer calls back ``fabric._admit`` (in-order
delivery) and ``fabric._send_ack``.  When no fault plan is active the
layer is absent and the fabric pays one ``is None`` test per send.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..mpi.errors import RmaDeliveryError
from ..obs.metrics import Histogram
from .plan import ReliabilityConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..network.fabric import Fabric, SendTicket
    from ..simtime import Simulator

__all__ = ["ReliabilityLayer"]

PairKey = tuple[int, int]


class _SendState:
    """Sender-side bookkeeping for one tracked packet."""

    __slots__ = ("ticket", "seq", "attempts", "created_us", "last_sent_us")

    def __init__(self, ticket: "SendTicket", seq: int, now: float):
        self.ticket = ticket
        self.seq = seq
        self.attempts = 0
        self.created_us = now
        self.last_sent_us = now


class ReliabilityLayer:
    """One instance per job, shared by all rank pairs (like the fabric)."""

    def __init__(self, sim: "Simulator", config: ReliabilityConfig | None = None):
        self.sim = sim
        self.cfg = config or ReliabilityConfig()
        self.fabric: "Fabric | None" = None
        self._next_seq: dict[PairKey, int] = {}
        self._pending: dict[tuple[int, int, int], _SendState] = {}
        #: Receiver side: next sequence number to admit, per pair.
        self._recv_next: dict[PairKey, int] = {}
        #: Receiver side: out-of-order arrivals parked until the gap fills.
        self._recv_buffer: dict[PairKey, dict[int, "SendTicket"]] = {}
        # -- counters (all deterministic for a given plan + workload) -----
        self.retransmissions = 0
        self.dup_suppressed = 0
        self.out_of_order = 0
        self.acks_sent = 0
        self.delivery_failures = 0
        #: Send-to-ack round trips of the acked packets' last attempts.
        self.ack_rtt = Histogram("rel.ack_rtt_us")
        #: Optional :class:`repro.obs.causal.CausalRecorder`; each
        #: retransmission becomes a span covering the lost-attempt
        #: window, parented to the message's span.
        self.causal = None

    def bind(self, fabric: "Fabric") -> None:
        """Install the fabric this layer serves (done by the runtime)."""
        self.fabric = fabric

    # -- sender side -----------------------------------------------------
    def track(self, ticket: "SendTicket") -> None:
        """Assign the packet its per-pair sequence number and register
        it for ack/retransmit handling (called once per logical send)."""
        key = (ticket.src, ticket.dst)
        seq = self._next_seq.get(key, 0)
        self._next_seq[key] = seq + 1
        ticket.rel_seq = seq
        self._pending[(ticket.src, ticket.dst, seq)] = _SendState(ticket, seq, self.sim.now)

    def on_attempt(self, ticket: "SendTicket", delivery_delay_us: float) -> None:
        """One transmission attempt went on the wire; arm its timer.

        ``delivery_delay_us`` is the fabric's expected time-to-delivery
        for this attempt (ports + latency + injected delay), so the
        retry timer starts counting from when the ack could plausibly
        have returned.
        """
        st = self._pending.get((ticket.src, ticket.dst, ticket.rel_seq))
        if st is None:  # acked while queued on flow control
            return
        prev_sent = st.last_sent_us
        st.attempts += 1
        st.last_sent_us = self.sim.now
        if st.attempts > 1:
            self.retransmissions += 1
            causal = self.causal
            if causal is not None:
                # The span covers the lost-attempt window: from the
                # previous transmission to this retransmission.
                sid = causal.begin(
                    "retransmit", rank=ticket.src,
                    meta={"dst": ticket.dst, "seq": st.seq,
                          "attempt": st.attempts},
                )
                span = causal.spans[sid]
                span.t0 = prev_sent
                span.parent = ticket.causal_sid
                causal.end(sid)
        patience = delivery_delay_us + self.cfg.rto_for_attempt(st.attempts)
        self.sim.schedule(patience, self._check, ticket.src, ticket.dst, ticket.rel_seq,
                          st.attempts)

    def _check(self, src: int, dst: int, seq: int, attempt_no: int) -> None:
        st = self._pending.get((src, dst, seq))
        if st is None or st.attempts != attempt_no:
            # Acked, or a newer attempt re-armed the timer.
            return
        if st.attempts >= self.cfg.max_attempts:
            self._fail(st)
            return
        assert self.fabric is not None
        self.fabric._dispatch(st.ticket)

    def _fail(self, st: _SendState) -> None:
        self.delivery_failures += 1
        ticket = st.ticket
        assert self.fabric is not None
        injector = self.fabric.injector
        raise RmaDeliveryError(
            f"undeliverable packet {ticket.src}->{ticket.dst} seq={st.seq} "
            f"({type(ticket.payload).__name__}, {ticket.nbytes}B): "
            f"{st.attempts} attempts over "
            f"{self.sim.now - st.created_us:.1f}µs",
            src=ticket.src,
            dst=ticket.dst,
            seq=st.seq,
            attempts=st.attempts,
            nbytes=ticket.nbytes,
            payload_type=type(ticket.payload).__name__,
            service=ticket.kind.value,
            first_sent_us=st.created_us,
            failed_at_us=self.sim.now,
            fault_counters=dict(injector.counters) if injector is not None else {},
        )

    # -- receiver side ---------------------------------------------------
    def on_wire_arrival(self, ticket: "SendTicket") -> None:
        """An attempt physically arrived: ack it, dedupe, admit in order."""
        key = (ticket.src, ticket.dst)
        seq = ticket.rel_seq
        self._send_ack(ticket.dst, ticket.src, seq)
        nxt = self._recv_next.get(key, 0)
        buf = self._recv_buffer.setdefault(key, {})
        if seq < nxt or seq in buf:
            self.dup_suppressed += 1
            return
        buf[seq] = ticket
        if seq != nxt:
            self.out_of_order += 1
            return
        assert self.fabric is not None
        while nxt in buf:
            self.fabric._admit(buf.pop(nxt))
            nxt += 1
        self._recv_next[key] = nxt

    def _send_ack(self, from_rank: int, to_rank: int, seq: int) -> None:
        self.acks_sent += 1
        assert self.fabric is not None
        self.fabric._send_ack(from_rank, to_rank, seq)

    def on_ack(self, src: int, dst: int, seq: int) -> None:
        """The sender's credit: stop retransmitting ``(src, dst, seq)``."""
        st = self._pending.pop((src, dst, seq), None)
        if st is not None:
            self.ack_rtt.observe(self.sim.now - st.last_sent_us)

    # -- diagnostics -----------------------------------------------------
    @property
    def pending_count(self) -> int:
        """Tracked packets not yet acknowledged."""
        return len(self._pending)
