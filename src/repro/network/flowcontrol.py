"""Credit-based flow control between rank pairs.

The paper's implementation runs over InfiniBand with credit-based flow
control; §VIII-B reports that a flow-control issue capped scaling of the
transaction workload past 512 processes when many epochs are pending at
once.  This module models the mechanism that produces that behaviour: a
bounded number of unacknowledged packets per (source, destination) pair.
Sends that find no credit queue up FIFO and are released as acks return.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simtime import Position, Simulator

__all__ = ["CreditPool", "FlowControl"]


class CreditPool:
    """Credits for one directed (src → dst) pair.

    A credit on its way back (:meth:`return_after`) is a callback only
    while somebody waits for it.  Otherwise it is a position reserved in
    the kernel's event order — where its ``release`` would have run —
    counted home by one compare against the clock when a sender needs
    to know.  The first sender to stall claims every outstanding
    position with :meth:`release`, and while anybody waits a new return
    is scheduled: grants happen when, and in the order, they would with
    an event per credit.  A pool that never stalled and has every credit
    home is one a fresh pool stands in for: :class:`FlowControl` drops it.
    """

    __slots__ = ("capacity", "available", "sim", "_waiters", "_returns", "stall_count",
                 "max_queued", "sent")

    def __init__(self, capacity: int, sim: "Simulator | None" = None):
        if capacity <= 0:
            raise ValueError(f"credit capacity must be positive, got {capacity}")
        self.capacity = capacity
        #: Credits known to be home; :meth:`settle` brings it up to date.
        self.available = capacity
        #: Kernel that times the returns (a hand-driven pool needs none).
        self.sim = sim
        #: Stalled sends, FIFO: a deque while any waits, else ``()``
        #: (an empty deque is 0.6 KiB; most pools never wait).
        self._waiters: "deque[tuple[Callable[..., None], tuple[Any, ...]]] | tuple[()]" = ()
        #: Reserved positions of the credits in flight, in event order
        #: (at most ``capacity``); empty whenever a sender waits.
        self._returns: "list[Position]" = []
        #: Number of sends that had to wait for a credit (contention metric).
        self.stall_count = 0
        #: High-water mark of concurrently stalled sends (§VIII-B: the
        #: depth the pending-epoch backlog reached on this pair).
        self.max_queued = 0
        #: A credit went out since :class:`FlowControl`'s last sweep.
        self.sent = False

    def settle(self) -> None:
        """Count home every returning credit the clock has passed."""
        returns = self._returns
        if returns:
            passed = self.sim.passed
            while returns and passed(returns[0]):
                del returns[0]
                self.available += 1

    def acquire(self, on_granted: Callable[..., None], *args: Any) -> None:
        """Take one credit, invoking ``on_granted(*args)`` immediately if
        one is free or later (FIFO) when one is released.  Passing the
        arguments separately lets hot callers avoid a closure per send."""
        if self.available <= 0:
            self.settle()
        if self.available > 0 and not self._waiters:
            self.available -= 1
            on_granted(*args)
        else:
            self.stall_count += 1
            if not self._waiters:
                self._waiters = deque()
                for pos in self._returns:
                    self.sim.claim(pos, self.release)
                self._returns.clear()
            self._waiters.append((on_granted, args))
            if len(self._waiters) > self.max_queued:
                self.max_queued = len(self._waiters)

    def release(self) -> None:
        """Return one credit, unblocking the oldest waiter if any."""
        if self._waiters:
            waiter, args = self._waiters.popleft()
            if not self._waiters:  # before the call: the waiter may stall again
                self._waiters = ()
            waiter(*args)
        else:
            if self.available >= self.capacity:
                raise RuntimeError("credit released more times than acquired")
            self.available += 1

    def return_after(self, delay: float) -> None:
        """The credit of a packet put on the wire now is home ``delay``
        from now (the ack travels back after the wire-level arrival)."""
        self.sent = True
        sim = self.sim
        if self._waiters or delay <= 0.0:
            sim.schedule(delay, self.release)
            return
        returns = self._returns
        # Those strictly behind the clock are home whatever the tie-break
        # says: counting them here keeps the list at what is in flight.
        now = sim._now
        while returns and returns[0][0] < now:
            del returns[0]
            self.available += 1
        pos = sim.reserve(delay)
        if returns and pos < returns[-1]:
            insort(returns, pos)  # a policy delayed an earlier return past this one
        else:
            returns.append(pos)


class FlowControl:
    """Lazily instantiated credit pools for all rank pairs.

    ``capacity <= 0`` disables flow control entirely (every acquire
    succeeds immediately), which the ablation benchmarks use to isolate
    its effect.
    """

    def __init__(
        self,
        sim: "Simulator",
        capacity: int,
        ack_latency: float,
        nranks: int | None = None,
    ):
        self.sim = sim
        self.capacity = capacity
        self.ack_latency = ack_latency
        self.enabled = capacity > 0
        # Sparse per-pair pools, one dict probe per send keyed by the int
        # ``src * stride + dst`` (a dense grid is 16M slots at 4096 ranks),
        # live while they differ from a fresh one: a sweep leaving L pools
        # runs again when there are max(2 L, nranks).
        self._stride = nranks or 1 << 32
        self._pools: dict[int, CreditPool] = {}
        self._floor = self._room = nranks or 1
        #: Optional :class:`repro.obs.causal.CausalRecorder` (None =
        #: disabled); stalled sends become ``fc_stall`` spans.
        self.causal = None

    def pool(self, src: int, dst: int) -> CreditPool:
        """The credit pool for the directed pair, created on demand; a
        creation may first drop the idle pools (:meth:`_sweep`)."""
        key = src * self._stride + dst
        pool = self._pools.get(key)
        if pool is None:
            if not self._room:
                self._sweep()
            self._room -= 1
            pool = self._pools[key] = CreditPool(self.capacity, self.sim)
        return pool

    def _sweep(self) -> None:
        """Keep only the pools that sent since the previous sweep (the
        second chance of a pair in an active exchange), stalled (a waiter
        is a stall) or have a credit away: returns are in event order, so
        the last one behind the clock is all of them (a tie is kept)."""
        now = self.sim.now
        self._pools = kept = {
            key: pool for key, pool in self._pools.items()
            if pool.sent or (pool._returns and pool._returns[-1][0] >= now)
            or pool.stall_count or pool.available + len(pool._returns) < pool.capacity}
        for pool in kept.values():
            pool.sent = False
        self._room = max(len(kept), self._floor - len(kept))

    def acquire(self, pool: CreditPool | None, src: int, dst: int,
                on_granted: Callable[..., None], *args: Any) -> None:
        """Acquire a credit for one packet src→dst from ``pool``, the
        pair's :meth:`pool` (immediate if disabled; ``pool`` may then be
        ``None``).  The caller probed the pool already, so it is looked
        up once per packet.

        Extra positional arguments are forwarded to ``on_granted`` when
        the credit is granted (closure-free hot path)."""
        if not self.enabled:
            on_granted(*args)
            return
        causal = self.causal
        if pool.available <= 0:
            pool.settle()
        if causal is not None and (pool.available <= 0 or pool._waiters):
            # This send will stall; wrap the grant to close its span.
            # The closure is fine here — stalls are the rare path.
            sid = causal.begin("fc_stall", rank=src, meta={"dst": dst})
            inner, inner_args = on_granted, args

            def on_granted() -> None:
                # end_cause = whatever released the credit; the resumed
                # send runs under the stall span's context.
                causal.end(sid)
                causal.current = sid
                inner(*inner_args)

            args = ()

        pool.acquire(on_granted, *args)

    def pair_stats(self) -> dict[tuple[int, int], tuple[int, int]]:
        """Per-pair ``(stall_count, max_queued)`` for every pair that
        ever stalled — the attribution §VIII-B lacked: *which* directed
        pair's credits ran dry, and how deep its backlog got."""
        stride = self._stride
        return {
            divmod(key, stride): (pool.stall_count, pool.max_queued)
            for key, pool in sorted(self._pools.items())
            if pool.stall_count
        }
