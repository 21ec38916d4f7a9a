"""Credit-based flow control."""

import pytest

from repro.network import CreditPool, FlowControl
from repro.simtime import Simulator


def take(fc, src, dst, fn):
    """One packet's credit, asked for the way the fabric asks: probe the
    pair's pool once and hand it over (``None`` with flow control off)."""
    fc.acquire(fc.pool(src, dst) if fc.enabled else None, src, dst, fn)


class TestCreditPool:
    def test_grants_up_to_capacity(self):
        pool = CreditPool(2)
        granted = []
        pool.acquire(lambda: granted.append(1))
        pool.acquire(lambda: granted.append(2))
        pool.acquire(lambda: granted.append(3))
        assert granted == [1, 2]
        assert pool.queued == 1
        assert pool.stall_count == 1

    def test_release_unblocks_fifo(self):
        pool = CreditPool(1)
        granted = []
        for i in range(4):
            pool.acquire(lambda i=i: granted.append(i))
        assert granted == [0]
        pool.release()
        pool.release()
        assert granted == [0, 1, 2]

    def test_over_release_raises(self):
        pool = CreditPool(1)
        pool.acquire(lambda: None)
        pool.release()
        with pytest.raises(RuntimeError, match="more times"):
            pool.release()

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            CreditPool(0)


class TestFlowControl:
    def test_disabled_always_grants(self):
        sim = Simulator()
        fc = FlowControl(sim, capacity=1, ack_latency=1.0, enabled=False)
        granted = []
        for i in range(100):
            take(fc, 0, 1, lambda i=i: granted.append(i))
        assert len(granted) == 100

    def test_pools_are_per_pair(self):
        sim = Simulator()
        fc = FlowControl(sim, capacity=1, ack_latency=1.0)
        granted = []
        take(fc, 0, 1, lambda: granted.append("a"))
        take(fc, 0, 2, lambda: granted.append("b"))  # distinct pair
        take(fc, 0, 1, lambda: granted.append("c"))  # stalls
        assert granted == ["a", "b"]
        assert fc.total_queued() == 1
        assert fc.total_stalls() == 1

    def test_scheduled_release_returns_credit(self):
        sim = Simulator()
        fc = FlowControl(sim, capacity=1, ack_latency=2.0)
        granted = []
        take(fc, 0, 1, lambda: granted.append("first"))
        take(fc, 0, 1, lambda: granted.append("second"))
        # A sender waits, so the return is a callback (as the fabric
        # asks for it: delivery delay + ack latency).
        fc.pool(0, 1).return_after(3.0 + fc.ack_latency)
        assert sim.pending_callbacks == 1
        sim.run()
        assert granted == ["first", "second"]
        assert sim.now == 5.0  # 3.0 delivery + 2.0 ack

    def test_pools_materialize_only_for_touched_pairs(self):
        """Pair state is lazy: untouched (src, dst) pairs allocate
        nothing, however large the job (no eager nranks x nranks grid)."""
        sim = Simulator()
        fc = FlowControl(sim, capacity=4, ack_latency=1.0, nranks=1 << 20)
        assert len(fc._pools) == 0
        take(fc, 0, 1, lambda: None)
        take(fc, 7, 3, lambda: None)
        take(fc, 0, 1, lambda: None)
        assert len(fc._pools) == 2
        assert fc.pool(0, 1).available == 2 and fc.pool(7, 3).available == 3
        assert len(fc._pools) == 2  # probing a touched pair adds no pool


class TestReturningCredits:
    """Credits on their way back to a pool nobody waits on are reserved
    positions, not callbacks; a waiter turns them into callbacks."""

    def make(self, capacity=2):
        sim = Simulator()
        return sim, CreditPool(capacity, sim)

    def test_returns_take_a_seq_but_no_heap_entry(self):
        sim, pool = self.make()
        pool.acquire(lambda: None)
        pool.return_after(3.0)
        assert sim.events_scheduled == 1
        assert sim.pending_callbacks == 0
        assert sim.run() == 3.0  # the run still ends where the credit came home

    def test_exhausted_pool_counts_the_returns_the_clock_has_passed(self):
        sim, pool = self.make()
        granted = []
        for _ in range(2):
            pool.acquire(lambda: None)
        pool.return_after(1.0)
        pool.return_after(4.0)
        sim.schedule(2.0, pool.acquire, granted.append, "at 2.0")
        sim.run(until=2.0)
        assert granted == ["at 2.0"]  # the 1.0 credit was home: no stall
        assert pool.stall_count == 0 and pool.available == 0
        assert len(pool._returns) == 1

    def test_first_waiter_claims_every_outstanding_return(self):
        sim, pool = self.make()
        granted = []
        for _ in range(2):
            pool.acquire(lambda: None)
        pool.return_after(3.0)
        pool.return_after(5.0)
        pool.acquire(lambda: granted.append(("a", sim.now)))
        pool.acquire(lambda: granted.append(("b", sim.now)))
        assert pool.stall_count == 2 and pool.max_queued == 2
        assert not pool._returns and sim.pending_callbacks == 2
        # While somebody waits a new return is a callback at once.
        pool.return_after(7.0)
        assert sim.pending_callbacks == 3
        sim.run()
        assert granted == [("a", 3.0), ("b", 5.0)]
        assert pool.available == 1  # the 7.0 one found no waiter

    def test_stall_at_the_instant_a_credit_is_due_later_in_the_batch(self):
        # The sender runs at 2.0 *before* the position the credit comes
        # home at (same instant, later seq): it must stall, and be
        # granted where the credit's callback would have run — after
        # ``sender`` and before ``after``, not at the batch tail.
        sim, pool = self.make(capacity=1)
        log = []

        def sender():
            log.append("sender")
            sim.schedule(0.0, log.append, "tail")
            pool.acquire(log.append, "granted")

        pool.acquire(lambda: None)
        sim.schedule(2.0, sender)
        pool.return_after(2.0)
        sim.schedule(2.0, log.append, "after")
        sim.run()
        assert log == ["sender", "granted", "after", "tail"]
        assert pool.stall_count == 1

    def test_no_stall_when_the_credit_was_due_earlier_in_the_batch(self):
        sim, pool = self.make(capacity=1)
        log = []
        pool.acquire(lambda: None)
        pool.return_after(2.0)
        sim.schedule(2.0, pool.acquire, log.append, "granted")
        sim.run()
        assert log == ["granted"] and pool.stall_count == 0

    def test_appending_a_return_counts_those_strictly_behind_the_clock(self):
        sim, pool = self.make(capacity=4)
        for _ in range(3):
            pool.acquire(lambda: None)
        pool.return_after(1.0)
        pool.return_after(2.0)
        sim.schedule(2.0, pool.return_after, 5.0)
        sim.run(until=2.0)
        # 1.0 is behind the clock; 2.0 is a tie and waits for a sender
        # that needs to know.
        assert pool.available == 2
        assert [p[0] for p in pool._returns] == [2.0, 7.0]

    def test_returns_stay_in_event_order_when_a_policy_swaps_them(self):
        class Swap:
            extras = iter((0.5, 0.0))

            def perturb(self, time, seq, lane):
                return next(self.extras), 0

        sim = Simulator(policy=Swap())
        pool = CreditPool(2, sim)
        for _ in range(2):
            pool.acquire(lambda: None)
        pool.return_after(1.0)   # perturbed to 1.5
        pool.return_after(1.25)  # stays at 1.25: home first
        assert [p[0] for p in pool._returns] == [1.25, 1.5]
