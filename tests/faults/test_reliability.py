"""Injector + reliability layer behaviour over the real RMA stack."""

import dataclasses

import numpy as np
import pytest

from repro.faults import (
    FaultKind,
    FaultPlan,
    FaultRule,
    RankFault,
    ReliabilityConfig,
    RmaDeliveryError,
)
from repro.faults.injector import FaultInjector
from repro.faults.reliability import ReliabilityLayer
from repro.network import ClusterTopology, Fabric
from repro.simtime import Simulator
from repro.workloads import SERIES, WORKLOADS
from tests.conftest import make_runtime
from tests.explore.test_fault_digest import APP_ROWS


def ring_put_app(nbytes=8):
    """Each rank locks its right neighbour and puts its rank id."""

    def app(proc):
        win = yield from proc.win_allocate(64, name="w")
        yield from proc.barrier()
        tgt = (proc.rank + 1) % proc.size
        yield from win.lock(tgt)
        win.put(np.full(nbytes, proc.rank + 1, dtype=np.uint8), tgt, 0)
        yield from win.unlock(tgt)
        yield from proc.barrier()
        return bytes(win.view()[:nbytes])

    return app


def expected_ring(nranks, nbytes=8):
    return [bytes([(r - 1) % nranks + 1] * nbytes) for r in range(nranks)]


class TestRuntimeWiring:
    def test_no_plan_no_overhead_objects(self):
        rt = make_runtime(2)
        assert rt.fabric.injector is None
        assert rt.fabric.reliability is None

    def test_plan_arms_reliability_automatically(self):
        rt = make_runtime(2, fault_plan=FaultPlan.light_chaos(seed=1))
        assert rt.fabric.injector is not None
        assert rt.fabric.reliability is not None

    def test_custom_reliability_config(self):
        cfg = ReliabilityConfig(rto_us=50.0, max_attempts=3)
        plan = dataclasses.replace(FaultPlan.light_chaos(seed=1), retry=cfg)
        rt = make_runtime(2, fault_plan=plan)
        assert rt.fabric.reliability.cfg is cfg

    @pytest.mark.parametrize("series", SERIES, ids=[s.name for s in SERIES])
    @pytest.mark.parametrize("workload", APP_ROWS)
    def test_empty_plan_arms_the_layer_and_changes_nothing(self, workload, series):
        """Any plan arms the injector and the reliability layer; a plan
        that injects nothing leaves the answer and the clock unchanged."""
        w = WORKLOADS[workload]
        clean, _ = w.run(series.engine, series.nonblocking, causal=True, **w.small)
        result, rt = w.run(series.engine, series.nonblocking, causal=True,
                           fault_plan=FaultPlan(), **w.small)
        assert rt.fabric.injector is not None
        assert rt.fabric.reliability is not None
        assert w.answer(result) == w.answer(clean)
        assert result.elapsed_us == clean.elapsed_us


class TestLossRecovery:
    def test_certain_drop_of_first_match_is_retransmitted(self):
        # Drop exactly the first 0->1 packet; the retry must repair it.
        plan = FaultPlan(
            seed=5,
            rules=(FaultRule(FaultKind.DROP, 1.0, src=0, dst=1, stop_count=1),),
        )
        rt = make_runtime(4, fault_plan=plan)
        res = rt.run(ring_put_app())
        assert res == expected_ring(4)
        assert rt.fabric.injector.counters["drops"] == 1
        assert rt.fabric.reliability.retransmissions >= 1
        assert rt.fabric.reliability.pending_count == 0

    def test_corruption_counts_separately_from_drops(self):
        plan = FaultPlan(
            seed=5,
            rules=(FaultRule(FaultKind.CORRUPT, 1.0, src=0, dst=1, stop_count=1),),
        )
        rt = make_runtime(4, fault_plan=plan)
        res = rt.run(ring_put_app())
        assert res == expected_ring(4)
        assert rt.fabric.injector.counters["corruptions"] == 1
        assert rt.fabric.injector.counters["drops"] == 0

    def test_duplicates_are_suppressed(self):
        plan = FaultPlan(seed=5, rules=(FaultRule(FaultKind.DUPLICATE, 1.0),))
        rt = make_runtime(4, fault_plan=plan)
        res = rt.run(ring_put_app())
        assert res == expected_ring(4)
        dups = rt.fabric.injector.counters["duplicates"]
        assert dups > 0
        # Every ghost copy must have been discarded before the middleware.
        assert rt.fabric.reliability.dup_suppressed >= dups

    def test_drop_then_reorder_preserves_fifo(self):
        # Dropping one early packet makes its retransmission arrive behind
        # later sequence numbers; in-order admission must hold them back.
        plan = FaultPlan(
            seed=9,
            rules=(FaultRule(FaultKind.DROP, 1.0, src=0, dst=1,
                             start_count=1, stop_count=2),),
        )
        rt = make_runtime(4, fault_plan=plan)
        res = rt.run(ring_put_app())
        assert res == expected_ring(4)
        rel = rt.fabric.reliability
        assert rel.retransmissions >= 1
        assert rel.out_of_order >= 1

    def test_delay_only_plan_same_answer(self):
        plan = FaultPlan(
            seed=2, rules=(FaultRule(FaultKind.DELAY, 1.0, delay_us=30.0),)
        )
        baseline = make_runtime(4).run(ring_put_app())
        rt = make_runtime(4, fault_plan=plan)
        assert rt.run(ring_put_app()) == baseline
        assert rt.fabric.injector.counters["delays"] > 0


class TestFailStop:
    def test_fail_stop_surfaces_delivery_error(self):
        plan = FaultPlan(seed=1, ranks=(RankFault(rank=1, fail_at_us=0.0),),
                         retry=ReliabilityConfig(rto_us=5.0, max_attempts=3))
        rt = make_runtime(4, fault_plan=plan, metrics=True)
        with pytest.raises(RmaDeliveryError) as exc_info:
            rt.run(ring_put_app())
        err = exc_info.value
        assert err.details["dst"] == 1 or err.details["src"] == 1
        assert err.details["attempts"] == 3
        assert rt.metrics_summary()["counters"]["rel.delivery_failures"] == 1
        assert "fault_counters" in err.details
        assert err.details["fault_counters"]["failstop_drops"] > 0

    def test_failstop_drops_counted(self):
        plan = FaultPlan(seed=1, ranks=(RankFault(rank=1, fail_at_us=0.0),),
                         retry=ReliabilityConfig(rto_us=5.0, max_attempts=2))
        rt = make_runtime(4, fault_plan=plan)
        with pytest.raises(RmaDeliveryError):
            rt.run(ring_put_app())
        assert rt.fabric.reliability.delivery_failures >= 1


class TestRankFaults:
    def test_slow_rank_stretches_time_not_answer(self):
        base_rt = make_runtime(4)
        baseline = base_rt.run(ring_put_app())
        plan = FaultPlan(seed=1, ranks=(RankFault(rank=1, slow_extra_us=20.0),))
        rt = make_runtime(4, fault_plan=plan)
        assert rt.run(ring_put_app()) == baseline
        assert rt.now > base_rt.now

    def test_attention_stall_is_scheduled_and_counted(self):
        plan = FaultPlan(
            seed=1, ranks=(RankFault(rank=1, stalls=((0.5, 10.0),)),)
        )
        rt = make_runtime(4, fault_plan=plan)
        res = rt.run(ring_put_app())
        assert res == expected_ring(4)
        assert rt.fabric.injector.counters["stalls"] == 1
        assert rt.stats().faults_injected["stalls"] == 1


class TestDeterminism:
    def test_same_seed_identical_counters(self):
        plan = FaultPlan.light_chaos(seed=1234)

        def one_run():
            rt = make_runtime(6, fault_plan=plan)
            res = rt.run(ring_put_app())
            rel = rt.fabric.reliability
            return (
                res,
                dict(rt.fabric.injector.counters),
                rel.retransmissions,
                rel.dup_suppressed,
                rel.acks_sent,
                rt.now,
            )

        assert one_run() == one_run()

    def test_different_seeds_diverge_somewhere(self):
        # Not guaranteed per-seed-pair in general, but for a heavy plan
        # over this workload these seeds are known to differ.
        def counters(seed):
            plan = FaultPlan.light_chaos(seed=seed, drop=0.2, delay_rate=0.2)
            rt = make_runtime(6, fault_plan=plan)
            rt.run(ring_put_app())
            return dict(rt.fabric.injector.counters), rt.now

        assert counters(1) != counters(2)


class TestStatsIntegration:
    def test_stats_carry_fault_counters(self):
        plan = FaultPlan(
            seed=5,
            rules=(FaultRule(FaultKind.DROP, 1.0, src=0, dst=1, stop_count=1),),
        )
        rt = make_runtime(4, fault_plan=plan)
        rt.run(ring_put_app())
        stats = rt.stats()
        assert stats.faults_injected["drops"] == 1
        assert stats.retransmissions >= 1
        assert stats.acks_sent > 0
        assert stats.delivery_failures == 0
        assert sum(stats.faults_injected.values()) >= 1

    def test_stats_default_empty_without_plan(self):
        rt = make_runtime(2)
        rt.run(ring_put_app())
        stats = rt.stats()
        assert stats.faults_injected == {}
        assert stats.retransmissions == 0
        assert stats.acks_sent == stats.dup_suppressed == stats.delivery_failures == 0


class TestTraceEvents:
    def test_fault_and_retry_events_emitted(self):
        plan = FaultPlan(
            seed=5,
            rules=(FaultRule(FaultKind.DROP, 1.0, src=0, dst=1, stop_count=1),),
        )
        rt = make_runtime(4, fault_plan=plan, causal=True)
        rt.run(ring_put_app())
        # The injected fault is counted; the retry it forced is a
        # retransmit span parented to the lost message's span.
        assert rt.stats().faults_injected["drops"] == 1
        spans = rt.causal.spans
        retried = [spans[s.parent] for s in spans if s.kind == "retransmit"]
        assert all(m.kind == "msg" for m in retried)
        assert any((m.rank, m.meta["dst"]) == (0, 1) for m in retried)


class TestFaultDrawInputs:
    def test_attempt_numbers_restart_at_delivery(self):
        """The injector draws on ``(uid, attempt)``, and ``attempt``
        counts transmissions since the last delivery.  One packet: its
        first attempt is dropped, the retransmission is delivered, the
        ack of that is dropped, so the packet goes out a third time, as
        attempt 0 again."""
        sim = Simulator()
        plan = FaultPlan(seed=3, rules=(
            FaultRule(FaultKind.DROP, 1.0, src=0, dst=1, stop_count=1),  # the data
            FaultRule(FaultKind.DROP, 1.0, src=1, dst=0, stop_count=1),  # its ack
        ))
        injector = FaultInjector(sim, plan)
        fabric = Fabric(sim, ClusterTopology(2, 1), injector=injector,
                        reliability=ReliabilityLayer(sim))
        delivered = []
        for rank in range(2):
            fabric.register_handler(rank, lambda payload, src: delivered.append(payload))
        draws = []
        disposition = injector.disposition

        def record(ticket, attempt, now):
            draws.append((ticket.uid, attempt))
            return disposition(ticket, attempt, now)

        injector.disposition = record
        ticket = fabric.send(0, 1, 64, "x")
        sim.run()
        uid = ticket.uid
        assert draws == [(uid, 0), (uid, 1), (uid, 0)]
        assert injector.counters["drops"] == injector.counters["ack_drops"] == 1
        assert fabric.reliability.retransmissions == 2
        assert fabric.reliability.dup_suppressed == 1
        assert delivered == ["x"]
