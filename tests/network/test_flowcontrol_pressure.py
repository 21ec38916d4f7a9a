"""Flow control under pressure: credit exhaustion, release ordering,
many pending epochs (the §VIII-B scaling scenario), with and without
injected packet loss — plus the new per-pair stall attribution."""

import numpy as np

from repro.apps import TransactionsConfig, run_transactions
from repro.faults import FaultPlan
from repro.network import CreditPool, FlowControl
from repro.network.model import NetworkModel
from repro.simtime import Simulator
from tests.conftest import make_runtime
from tests.network.test_flowcontrol import take


class TestCreditPoolHighWater:
    def test_max_queued_tracks_deepest_backlog(self):
        pool = CreditPool(1)
        pool.acquire(lambda: None)
        for _ in range(5):
            pool.acquire(lambda: None)
        assert pool.max_queued == 5
        for _ in range(5):
            pool.release()
        # Draining does not erase the high-water mark.
        assert pool._waiters == ()
        assert pool.max_queued == 5

    def test_max_queued_zero_when_never_stalled(self):
        pool = CreditPool(4)
        for _ in range(4):
            pool.acquire(lambda: None)
        assert pool.max_queued == 0

    def test_release_ordering_under_exhaustion(self):
        # FIFO release order must hold across a long starvation burst.
        pool = CreditPool(2)
        order = []
        for i in range(10):
            pool.acquire(lambda i=i: order.append(i))
        assert order == [0, 1]
        for _ in range(8):
            pool.release()
        assert order == list(range(10))


class TestFlowControlAttribution:
    def test_pair_stats_only_lists_stalled_pairs(self):
        sim = Simulator()
        fc = FlowControl(sim, capacity=1, ack_latency=1.0)
        take(fc, 0, 1, lambda: None)
        take(fc, 0, 1, lambda: None)  # stalls (0, 1)
        take(fc, 0, 2, lambda: None)  # never stalls
        stats = fc.pair_stats()
        assert stats == {(0, 1): (1, 1)}

    def test_max_queued_across_pairs(self):
        sim = Simulator()
        fc = FlowControl(sim, capacity=1, ack_latency=1.0)
        for _ in range(4):
            take(fc, 0, 1, lambda: None)
        for _ in range(2):
            take(fc, 2, 3, lambda: None)
        assert fc.pair_stats() == {(0, 1): (3, 3), (2, 3): (1, 1)}

    def test_disabled_flow_control_reports_empty(self):
        sim = Simulator()
        fc = FlowControl(sim, capacity=0, ack_latency=1.0)
        for _ in range(100):
            take(fc, 0, 1, lambda: None)
        assert fc.pair_stats() == {}


def flood_app(n_msgs, nbytes=256):
    """Rank 0 floods rank 1 inside one lock epoch (credit exhaustion)."""

    def app(proc):
        win = yield from proc.win_allocate(max(nbytes, 64), name="w")
        yield from proc.barrier()
        if proc.rank == 0:
            yield from win.lock(1)
            data = np.ones(nbytes, dtype=np.uint8)
            for _ in range(n_msgs):
                win.put(data, 1, 0)
            yield from win.unlock(1)
        yield from proc.barrier()
        return int(win.view()[0])

    return app


class TestPressureScenarios:
    TIGHT = NetworkModel().with_overrides(credits_per_peer=4)

    def test_credit_exhaustion_stalls_and_recovers(self):
        rt = make_runtime(2, model=self.TIGHT)
        res = rt.run(flood_app(64))
        assert res[1] == 1  # the puts landed
        stats = rt.stats()
        assert stats.fc_stalls > 0
        assert stats.fc_max_queued > 0
        assert (0, 1) in stats.fc_pair_stalls
        stall_count, max_queued = stats.fc_pair_stalls[(0, 1)]
        assert stall_count >= max_queued > 0
        # The totals are the per-pair attribution summed and maxed.
        assert stats.fc_stalls == sum(s for s, _ in stats.fc_pair_stalls.values())
        assert stats.fc_max_queued == max(q for _, q in stats.fc_pair_stalls.values())

    def test_a_drained_pool_keeps_no_empty_deque(self):
        """The last waiter to leave puts ``()`` back: a pool that once
        stalled holds no 0.6 KiB empty deque for the rest of the run."""
        rt = make_runtime(2, model=self.TIGHT)
        assert rt.run(flood_app(64))[1] == 1
        pool = rt.fabric.flow.pool(0, 1)
        assert pool._waiters == ()
        assert pool.stall_count == 61

    def test_many_pending_epochs_viii_b(self):
        # The §VIII-B scenario: many nonblocking epochs in flight at
        # once drive deep per-pair backlogs.  The run must complete, the
        # counters must attribute the pressure, and every update lands.
        cfg = TransactionsConfig(
            nranks=4,
            txns_per_rank=24,
            engine="nonblocking",
            nonblocking=True,
            max_pending=24,
            model=NetworkModel().with_overrides(credits_per_peer=2),
        )
        res = run_transactions(cfg)
        assert res.applied == res.total_txns
        assert res.fc_stalls > 0

    def test_pressure_with_and_without_drops_same_answer(self):
        clean = make_runtime(2, model=self.TIGHT).run(flood_app(48))
        rt = make_runtime(
            2, model=self.TIGHT,
            fault_plan=FaultPlan.light_chaos(seed=17, drop=0.02),
        )
        assert rt.run(flood_app(48)) == clean
        stats = rt.stats()
        # Retransmissions under exhausted credits must neither deadlock
        # nor leak credits (the run completed, so release ordering held).
        assert stats.fc_stalls > 0

    def test_drops_increase_stall_pressure_not_correctness(self):
        def stalls(plan):
            rt = make_runtime(2, model=self.TIGHT, fault_plan=plan)
            res = rt.run(flood_app(48))
            return res, rt.stats().fc_stalls

        res_clean, clean_stalls = stalls(None)
        plan = FaultPlan.light_chaos(seed=3, drop=0.1, duplicate=0.0,
                                     delay_rate=0.0)
        res_faulty, faulty_stalls = stalls(plan)
        assert res_faulty == res_clean
        # Every retransmission pays a fresh credit, so loss can only add
        # pressure.
        assert faulty_stalls >= clean_stalls

    def test_disabled_flow_control_still_correct_under_faults(self):
        off = NetworkModel(credits_per_peer=0)
        clean = make_runtime(2, model=off).run(flood_app(32))
        rt = make_runtime(2, model=off, fault_plan=FaultPlan.light_chaos(seed=11))
        assert rt.run(flood_app(32)) == clean
        assert rt.stats().fc_stalls == 0
