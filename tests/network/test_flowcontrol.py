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
        assert len(pool._waiters) == 1
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
        fc = FlowControl(sim, capacity=0, ack_latency=1.0)
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
        assert len(fc.pool(0, 1)._waiters) == 1 and fc.pool(0, 2)._waiters == ()
        assert fc.pair_stats() == {(0, 1): (1, 1)}

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


class TestIdlePoolsAreDropped:
    """A pool exists while it differs from a fresh one.  Each test names
    the one-line mutant of ``FlowControl._sweep`` that it fails under."""

    def make(self, capacity=2, policy=None):
        sim = Simulator(policy=policy)
        return sim, FlowControl(sim, capacity=capacity, ack_latency=1.0, nranks=4)

    @staticmethod
    def send(fc, src, dst, delay):
        """One packet as the fabric sends it: its credit comes home
        ``delay`` after the grant."""
        pool = fc.pool(src, dst)
        fc.acquire(pool, src, dst, pool.return_after, delay)
        return pool

    @staticmethod
    def sweep_at(sim, fc, when, times=2):
        """Sweep ``times`` times from callbacks at ``when`` (the first of
        two uses up the second chance of a pool that sent)."""
        for _ in range(times):
            sim.schedule(when - sim.now, fc._sweep)
        sim.run()

    def test_idle_pool_is_dropped_and_its_pair_starts_fresh(self):
        # Mutants: ``self._pools = kept = {`` -> ``kept = {``; or
        # ``pool.sent = False`` -> ``pass``.
        sim, fc = self.make()
        old = self.send(fc, 0, 1, 1.0)
        self.send(fc, 0, 1, 2.0)
        self.sweep_at(sim, fc, 5.0)
        assert fc._pools == {}
        new = fc.pool(0, 1)
        assert new is not old
        assert new.available == new.capacity == 2 and new._returns == []

    def test_a_pool_that_sent_since_the_last_sweep_survives_one(self):
        # Mutants: ``pool.sent or`` deleted from the sweep; or ``self.sent =
        # True`` deleted from ``CreditPool.return_after``.
        sim, fc = self.make()
        pool = self.send(fc, 0, 1, 1.0)
        self.sweep_at(sim, fc, 5.0, times=1)
        assert fc.pool(0, 1) is pool
        self.send(fc, 0, 1, 1.0)
        self.sweep_at(sim, fc, 7.0, times=1)
        assert fc.pool(0, 1) is pool
        self.sweep_at(sim, fc, 8.0, times=1)
        assert fc._pools == {}

    def test_a_pool_that_ever_stalled_is_kept(self):
        # Mutant: ``or pool.stall_count`` deleted.
        sim, fc = self.make(capacity=1)
        pool = self.send(fc, 0, 1, 1.0)
        self.send(fc, 0, 1, 1.0)  # stalls until 1.0, home at 2.0
        self.sweep_at(sim, fc, 5.0)
        assert fc.pool(0, 1) is pool and pool.available + len(pool._returns) == 1
        assert fc.pair_stats() == {(0, 1): (1, 1)}

    def test_a_pool_with_a_waiter_is_kept(self):
        # Mutant: ``or pool.stall_count or pool.available + ...`` -> ``}``.
        sim, fc = self.make(capacity=1)
        pool = fc.pool(0, 1)
        fc.acquire(pool, 0, 1, lambda: None)  # its credit is never returned
        fc.acquire(pool, 0, 1, lambda: None)
        fc._sweep()
        fc._sweep()
        assert fc.pool(0, 1) is pool and len(pool._waiters) == 1

    def test_a_pool_with_a_credit_in_flight_is_kept(self):
        # Mutant: ``pool._returns[-1]`` -> ``pool._returns[0]``.
        sim, fc = self.make()
        pool = self.send(fc, 0, 1, 1.0)
        self.send(fc, 0, 1, 9.0)
        self.sweep_at(sim, fc, 5.0)
        assert fc.pool(0, 1) is pool
        self.sweep_at(sim, fc, 10.0)
        assert fc._pools == {}  # home at last: it goes

    def test_a_return_due_later_at_the_same_instant_is_kept(self):
        # Mutant: ``>= now`` -> ``> now``.
        class Keys:
            """The credit's return takes key 1; the sweep, scheduled
            after it, takes key 0 and so runs first at that instant."""

            keys = iter((1, 0))

            def perturb(self, time, seq, lane):
                return 0.0, next(self.keys)

        sim, fc = self.make(policy=Keys())
        pool = self.send(fc, 0, 1, 2.0)
        seen = []

        def sweep_twice():
            seen.append(sim.passed(pool._returns[-1]))
            fc._sweep()
            fc._sweep()
            seen.append(fc.pool(0, 1) is pool)

        sim.schedule(2.0, sweep_twice)
        sim.run()
        assert seen == [False, True]

    def test_a_credit_returning_as_an_event_is_kept_until_it_lands(self):
        # Mutant: ``or pool.available + len(pool._returns) < pool.capacity`` deleted.
        sim, fc = self.make(capacity=1)
        seen = []

        def send_then_sweep():
            pool = self.send(fc, 0, 1, 0.0)  # a ``release`` callback at this instant
            fc._sweep()
            fc._sweep()
            seen.append((fc.pool(0, 1) is pool, pool.available))

        sim.schedule(1.0, send_then_sweep)
        sim.run()
        assert seen == [(True, 0)]
        assert fc.pool(0, 1).available == 1

    def test_a_new_pool_sweeps_at_twice_what_the_last_sweep_left(self):
        # Mutant: ``max(len(kept), self._floor - len(kept))`` -> ``self._floor``.
        sim, fc = self.make()  # 4 ranks: a sweep leaving L waits for max(2 L, 4) pools
        pairs = [(src, dst) for src in range(4) for dst in range(4) if src != dst]
        keys = [src * 4 + dst for src, dst in pairs]

        def advance():
            sim.schedule(5.0, lambda: None)
            sim.run()

        for pair in pairs[:4]:
            self.send(fc, *pair, 1.0)
        advance()
        fc._sweep()  # all four sent since construction: kept
        for pair in pairs[:3]:
            self.send(fc, *pair, 1.0)
        advance()
        fc._sweep()  # the fourth sent nothing since the last sweep: three left
        assert sorted(fc._pools) == keys[:3]
        for pair in pairs[4:7]:
            self.send(fc, *pair, 1.0)  # six pools, twice three: no sweep yet
        for pair in pairs[:3] + pairs[4:7]:
            fc.pool(*pair)  # probing creates nothing and sweeps nothing
        assert sorted(fc._pools) == keys[:3] + keys[4:7]
        advance()
        self.send(fc, *pairs[7], 1.0)  # the seventh pool sweeps the first three
        assert sorted(fc._pools) == keys[4:8]
