"""Per-rank NIC port model and the host-attention gate.

Ports
-----
Each rank owns one outbound and one inbound port per path type
(internode / intranode).  A message occupies the outbound port for its
serialization time ``T = nbytes / bw`` and the inbound port for the same
interval shifted by the one-way latency ``L`` (cut-through switching)::

    start  = max(ready, out_free, in_free - L)
    out_free = start + T
    in_free  = delivery = start + L + T

so an uncontended 1 MB internode message arrives after ``L + T`` and
contending messages serialize on both endpoints' ports.

Attention
---------
Some control traffic (lock grants, large-accumulate rendezvous) needs the
destination *host CPU*, not just its NIC.  :class:`AttentionGate` models
whether the host is currently inside the MPI library (attentive) or off
computing; gated deliveries queue until attention returns.  The queue is
not FIFO per host by construction: a drained delivery that finds the
gate closed again when its turn comes is requeued *behind* the
deliveries that arrived meanwhile.  What runs keep is the arrival order
per (source, destination) pair, the order the fabric's FIFO lanes
promise (``tests/network/test_attention_order.py`` pins it on a seeded
program).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simtime import Simulator

__all__ = ["PortPair", "NicPorts", "AttentionGate", "AttentionGateTable"]


class PortPair:
    """Out/in port free-time bookkeeping for one path type of one rank."""

    __slots__ = ("out_free", "in_free")

    def __init__(self) -> None:
        self.out_free = 0.0
        self.in_free = 0.0


class NicPorts:
    """All four ports of a rank (internode and intranode pairs)."""

    __slots__ = ("internode", "intranode")

    def __init__(self) -> None:
        self.internode = PortPair()
        self.intranode = PortPair()


class AttentionGate:
    """Models host-CPU availability for middleware control processing.

    Ranks start attentive (a process not yet computing is, from the
    network's point of view, pollable).  The MPI process facade flips the
    gate off for the duration of modeled compute and back on when the rank
    re-enters the MPI library.

    Independently of the application-driven flag, fault injection can
    *stall* the gate (:meth:`force_stall`): the host is nominally inside
    the MPI library but makes no control progress — a seized NIC driver,
    an OS jitter burst.  The gate is open only when attentive *and* not
    stalled.
    """

    __slots__ = ("sim", "rank", "_attentive", "_stalled", "_stall_gen", "_queue", "deferred")

    def __init__(self, sim: "Simulator", rank: int):
        self.sim = sim
        self.rank = rank
        self._attentive = True
        self._stalled = False
        #: Generation counter so overlapping stalls extend, not truncate.
        self._stall_gen = 0
        #: Deliveries waiting for attention: a list while any waits.
        self._queue: "list[tuple[Callable[..., None], tuple[Any, ...]]] | tuple[()]" = ()
        #: Deliveries that found the gate closed and queued.
        self.deferred = 0

    @property
    def attentive(self) -> bool:
        """Whether gated deliveries run immediately."""
        return self._attentive and not self._stalled

    def set_attentive(self, value: bool) -> None:
        """Flip the gate; turning it on drains the pending queue in queue
        order (scheduled at the current instant, not run synchronously).
        A drained delivery that finds the gate closed again goes to the
        back of the queue, behind those that arrived since the drain."""
        if value == self._attentive:
            return
        self._attentive = value
        if value and not self._stalled:
            self._drain()

    def force_stall(self, duration: float) -> None:
        """Fault injection: suspend control processing for ``duration``
        regardless of the application-driven attention flag.  A stall
        arriving while another is active extends the outage."""
        self._stalled = True
        self._stall_gen += 1
        gen = self._stall_gen
        self.sim.schedule(duration, self._clear_stall, gen)

    def _clear_stall(self, gen: int) -> None:
        if gen != self._stall_gen:
            return  # a newer stall superseded this one
        self._stalled = False
        if self._attentive:
            self._drain()

    def _drain(self) -> None:
        queue, self._queue = self._queue, ()
        for fn, args in queue:
            self.sim.schedule(0.0, self._run_if_still_attentive, fn, args)

    def _run_if_still_attentive(self, fn: Callable[..., None], args: tuple[Any, ...]) -> None:
        # The host may have gone inattentive (or been stalled) again
        # between the drain scheduling and this callback; requeue then.
        if self.attentive:
            fn(*args)
        elif self._queue:
            self._queue.append((fn, args))
        else:
            self._queue = [(fn, args)]

    def submit(self, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` now if attentive, else queue it.  Passing
        the arguments separately keeps the hot delivery path closure-free."""
        if self.attentive:
            fn(*args)
            return
        self.deferred += 1
        if self._queue:
            self._queue.append((fn, args))
        else:
            self._queue = [(fn, args)]

    @property
    def pending(self) -> int:
        """Deliveries waiting for attention."""
        return len(self._queue)


class AttentionGateTable:
    """Lazily materialized per-rank :class:`AttentionGate` lookup.

    Gates exist only for ranks whose attention state was ever touched
    (a gated delivery arrived, the process facade flipped the flag, or
    fault injection stalled the host) — O(touched ranks), not O(nranks).
    Untouched ranks are semantically identical to a fresh gate (ranks
    start attentive with an empty queue), so on-demand creation cannot
    change virtual time.  Iteration yields touched gates only.
    """

    __slots__ = ("_sim", "_gates")

    def __init__(self, sim: "Simulator"):
        self._sim = sim
        self._gates: dict[int, AttentionGate] = {}

    def __getitem__(self, rank: int) -> AttentionGate:
        gate = self._gates.get(rank)
        if gate is None:
            gate = self._gates[rank] = AttentionGate(self._sim, rank)
        return gate

    def __iter__(self):
        return iter(self._gates.values())

    def __len__(self) -> int:
        return len(self._gates)
