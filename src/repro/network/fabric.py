"""The simulated fabric: moves :class:`~repro.network.packets.SendTicket`
messages between ranks under the cost model, port contention, flow
control, registration-cache and host-attention constraints.

The fabric is *omniscient* (it sees both endpoints' port schedules), which
is the standard trick that lets a discrete-event model enforce cut-through
port occupancy without simulating switches.

Fault injection and reliability
-------------------------------
The fabric optionally hosts a :class:`~repro.faults.injector.FaultInjector`
(decides per transmission attempt: drop / corrupt / duplicate / delay /
fail-stop) and a :class:`~repro.faults.reliability.ReliabilityLayer`
(per-pair sequencing, ack/retransmit, duplicate suppression, in-order
admission).  Both default to ``None`` and cost one attribute test per
send when absent.  The wire pipeline with both present::

    send ──► track(seq) ──► _dispatch ──► flow control ──► _start_transfer
                  ▲                                             │ ports, injector
                  │ retransmit (rel. timer)                     ▼
                  └──────────────────────────────  _arrive (wire arrival)
                                                        │ ack, dedupe, reorder
                                                        ▼
                                          _admit ──► attention gate ──► _deliver

Without a reliability layer the wire arrival *is* the admission, so it
is scheduled straight onto ``_admit`` — or onto ``_deliver`` for a
message that needs no host attention.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from .flowcontrol import CreditPool, FlowControl
from .model import NetworkModel
from .nic import AttentionGateTable, NicPorts
from .packets import SendTicket, ServiceKind
from .regcache import RegistrationCache
from .topology import ClusterTopology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.injector import FaultInjector
    from ..faults.reliability import ReliabilityLayer
    from ..simtime import Simulator

__all__ = ["Fabric", "SendTicket"]

DeliveryHandler = Callable[[Any, int], None]


class Fabric:
    """One instance per simulated job; shared by every rank's middleware."""

    def __init__(
        self,
        sim: "Simulator",
        topology: ClusterTopology,
        model: NetworkModel | None = None,
        injector: "FaultInjector | None" = None,
        reliability: "ReliabilityLayer | None" = None,
    ):
        self.sim = sim
        self.topology = topology
        self.model = model or NetworkModel()
        self.flow = FlowControl(
            sim,
            self.model.credits_per_peer,
            self.model.ack_latency,
            nranks=topology.nranks,
        )
        self._ports = [NicPorts() for _ in range(topology.nranks)]
        #: Lazily materialized per-rank attention gates (touched ranks
        #: only; a fresh gate is attentive with an empty queue, so
        #: on-demand creation is invisible to virtual time).
        self.attention = AttentionGateTable(sim)
        self._regcaches = [
            RegistrationCache(
                self.model.regcache_capacity,
                self.model.pin_base_cost,
                self.model.pin_cost_per_kb,
            )
            for _ in range(topology.nranks)
        ]
        #: Per-rank middleware delivery handlers.
        self._handler_list: list[DeliveryHandler | None] = [None] * topology.nranks
        self.injector = injector
        self.reliability = reliability
        if reliability is not None:
            reliability.bind(self)
        #: Optional :class:`repro.obs.causal.CausalRecorder`, set by the
        #: runtime when built with ``causal=True``.  Every message
        #: becomes a span from send() to _deliver(); the delivery
        #: handler runs under the message's causal context.
        self.causal = None
        # Traffic accounting (used by benchmarks and tests).
        self.bytes_sent = 0
        #: Sends per service kind, keyed by ``ServiceKind`` value (a str
        #: key: hashing the enum member would cost a Python call per send).
        self.sends = dict.fromkeys((kind.value for kind in ServiceKind), 0)
        # Lanes key per-pair FIFO contracts in the kernel by *equality*,
        # not identity, so the per-send tuple is built inline at each
        # schedule site — a lookup table would have to build the same
        # tuple just to probe it, and a dense one is O(nranks²).
        #: rank -> node id, flattened out of the topology object so the
        #: per-message intranode test is two list loads (node_of pays a
        #: range check per call).
        self._node_id = [topology.node_of(r) for r in range(topology.nranks)]
        #: (internode, intranode) latency/bandwidth pairs indexed by the
        #: boolean intranode flag — the model never changes after
        #: construction, so the per-transfer method calls fold away.
        self._lat = (self.model.latency(False), self.model.latency(True))
        self._bw = (self.model.internode_bw, self.model.intranode_bw)

    # -- wiring ----------------------------------------------------------
    def register_handler(self, rank: int, handler: DeliveryHandler) -> None:
        """Install the middleware delivery handler for ``rank``."""
        if self._handler_list[rank] is not None:
            raise ValueError(f"rank {rank} already has a delivery handler")
        self._handler_list[rank] = handler

    @property
    def messages_sent(self) -> int:
        """Messages put on the wire: every send plus every reliability ack."""
        rel = self.reliability
        return sum(self.sends.values()) + (rel.acks_sent if rel is not None else 0)

    def regcache(self, rank: int) -> RegistrationCache:
        """The registration cache of ``rank``."""
        return self._regcaches[rank]

    # -- sending ---------------------------------------------------------
    def send(
        self,
        src: int,
        dst: int,
        nbytes: int,
        payload: Any,
        kind: ServiceKind = ServiceKind.RDMA,
        needs_attention: bool = False,
        pin_region: tuple[int, int] | None = None,
    ) -> SendTicket:
        """Queue a message; returns its :class:`SendTicket` immediately.

        ``pin_region`` — an (address, size) pair registered at the source
        before the transfer if the path is internode; hits in the LRU
        registration cache are free.

        Loopback (``src == dst``) is delivered at the current instant
        with no port occupancy, matching self-communication shortcuts in
        real MPI middleware; it bypasses fault injection and reliability
        (nothing crosses a wire).
        """
        ticket = SendTicket(self.sim, src, dst, nbytes, kind, payload, needs_attention,
                            pin_region)
        self.bytes_sent += nbytes
        self.sends[kind._value_] += 1
        causal = self.causal
        if causal is not None:
            ticket.causal_sid = causal.begin(
                "msg", rank=src,
                meta={"dst": dst, "ptype": type(payload).__name__,
                      "nbytes": nbytes},
            )

        if src == dst:
            ticket._fire_local()
            if causal is not None:
                # Loopback delivers synchronously inside the caller's
                # frame: run the handler under the message's context,
                # then restore the caller's so sibling sends keep their
                # true parent.
                prev = causal.current
                self._deliver(ticket)
                causal.current = prev
            else:
                self._deliver(ticket)
            return ticket

        if self.reliability is not None:
            self.reliability.track(ticket)
            self._dispatch(ticket)
            return ticket
        # Inline of _dispatch for the common non-stalled case: one pool
        # probe, no callback indirection.  A stall hands the probed pool
        # to the full FlowControl path, so accounting and spans stay
        # identical.
        flow = self.flow
        if not flow.enabled:
            self._start_transfer(ticket, None)
            return ticket
        pool = flow.pool(src, dst)
        if pool.available > 0 and not pool._waiters:
            pool.available -= 1
            self._start_transfer(ticket, pool)
        else:
            flow.acquire(pool, src, dst, self._start_transfer, ticket, pool)
        return ticket

    # -- internals ---------------------------------------------------------
    def _dispatch(self, ticket: SendTicket) -> None:
        """Acquire a flow-control credit and put one transmission attempt
        on the wire.  Also the reliability layer's retransmission entry
        point — every attempt pays credits and port occupancy."""
        src, dst = ticket.src, ticket.dst
        flow = self.flow
        pool = flow.pool(src, dst) if flow.enabled else None
        flow.acquire(pool, src, dst, self._start_transfer, ticket, pool)

    def _start_transfer(self, ticket: SendTicket, pool: CreditPool | None) -> None:
        """Put one attempt on the wire; ``pool`` is where its credit
        came from (``None`` with flow control disabled)."""
        src, dst = ticket.src, ticket.dst
        nodes = self._node_id
        intranode = nodes[src] == nodes[dst]
        sim = self.sim
        now = start = sim._now
        if ticket.pin_region is not None and not intranode:
            start += self._regcaches[src].pin_cost(*ticket.pin_region)
        lat = self._lat[intranode]
        ser = ticket.nbytes / self._bw[intranode]
        if intranode:
            ports_src = self._ports[src].intranode
            ports_dst = self._ports[dst].intranode
        else:
            ports_src = self._ports[src].internode
            ports_dst = self._ports[dst].internode
        # start = max(ready, out_free, in_free - L), see nic.py.
        if ports_src.out_free > start:
            start = ports_src.out_free
        cut_through = ports_dst.in_free - lat
        if cut_through > start:
            start = cut_through
        out_done = start + ser
        delivery = start + lat + ser
        ports_src.out_free = out_done
        ports_dst.in_free = delivery

        # The first attempt of a send nobody listens to yet only reserves
        # the instant the out-port is done; a send that stalled with
        # listeners attached, and a retransmission, take a heap entry.
        if ticket._local_pos is False and out_done > now:
            ticket._local_pos = sim.reserve(out_done - now)
        else:
            if ticket._local_pos is False:
                ticket._local_pos = None
            sim.schedule(out_done - now, ticket._fire_local)
        # The ack travels back after the wire-level arrival whether or
        # not the packet is usable there (link-level credits are below
        # the loss model), so dropped packets never leak credits.
        if pool is not None:
            pool.return_after(delivery - now + self.flow.ack_latency)

        # Where the wire arrival lands (see the module docstring).
        reliability = self.reliability
        if reliability is not None:
            arrive = self._arrive
        elif ticket.needs_attention:
            arrive = self._admit
        else:
            arrive = self._deliver
        net_lane = ("net", src, dst)
        if self.injector is None:
            # Per-pair wire arrival order is a fabric contract (the
            # middleware relies on FIFO delivery between two ranks), so
            # exploration policies may only shift the whole lane.
            sim.schedule(delivery - now, arrive, ticket, lane=net_lane)
            if reliability is not None and ticket.rel_seq is not None:
                reliability.on_attempt(ticket, delivery - now)
            return

        attempt = ticket.attempt
        ticket.attempt = attempt + 1
        disp = self.injector.disposition(ticket, attempt, now)
        arrival_delay = delivery - now + disp.delay_us
        if not disp.lost:
            sim.schedule(arrival_delay, arrive, ticket, lane=net_lane)
            if disp.duplicate:
                sim.schedule(
                    arrival_delay + self.injector.plan.duplicate_lag_us,
                    arrive,
                    ticket,
                    lane=net_lane,
                )
        if reliability is not None and ticket.rel_seq is not None:
            reliability.on_attempt(ticket, arrival_delay)

    def _arrive(self, ticket: SendTicket) -> None:
        """Wire-level arrival at the destination NIC (reliability layer on)."""
        if self.reliability is not None and ticket.rel_seq is not None:
            self.reliability.on_wire_arrival(ticket)
        else:
            self._admit(ticket)

    def _admit(self, ticket: SendTicket) -> None:
        """Deliver one (deduplicated, in-order) packet, gating on host
        attention when the payload needs the destination CPU."""
        if ticket.needs_attention:
            self.attention[ticket.dst].submit(self._attn_deliver, ticket)
        else:
            self._deliver(ticket)

    def _attn_deliver(self, ticket: SendTicket) -> None:
        """Attention granted: pay the host overhead, then deliver.  The
        attention hop must not reorder packets admitted in order: one
        lane per destination host."""
        self.sim.schedule(
            self.model.host_attention_overhead,
            self._deliver,
            ticket,
            lane=("attn", ticket.dst),
        )

    def _deliver(self, ticket: SendTicket) -> None:
        # Fault draws count attempts from the last delivery on.
        ticket.attempt = 0
        sim = self.sim
        causal = self.causal
        if causal is not None and ticket.causal_sid is not None:
            causal.deliver(ticket.causal_sid)
        handler = self._handler_list[ticket.dst]
        if handler is not None:
            handler(ticket.payload, ticket.src)
        if ticket.delivered_time is None:  # an injected duplicate delivers twice
            ticket.delivered_time = sim._now
            cbs = ticket._delivered_cbs
            if cbs is not None:
                ticket._delivered_cbs = None
                for fn, args in cbs:
                    sim.schedule(0.0, fn, *args)

    # -- reliability-layer ack transport -----------------------------------
    def _send_ack(self, src: int, dst: int, seq: int) -> None:
        """Carry one reliability ack ``src -> dst`` for sequence ``seq``.

        Acks are link-level control: they bypass ports and flow-control
        credits (pure latency), but remain subject to injected drops and
        delays — a lost ack is exactly how retransmission-made
        duplicates reach the receiver.
        """
        assert self.reliability is not None
        self.bytes_sent += self.reliability.cfg.ack_bytes
        delay = self.model.latency(self.topology.same_node(src, dst))
        if self.injector is not None:
            disp = self.injector.ack_disposition(src, dst, self.sim._now)
            if disp.drop:
                return
            delay += disp.delay_us
        # Note the argument order: the ack for pair (dst -> src) keys the
        # sender-side pending entry (original src, original dst, seq).
        self.sim.schedule(
            delay, self.reliability.on_ack, dst, src, seq, lane=("ack", src, dst)
        )
