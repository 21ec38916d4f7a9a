"""Fabric timing, contention, ordering and delivery semantics."""

import pytest

from repro.network import ClusterTopology, Fabric, NetworkModel, ServiceKind
from repro.simtime import Simulator


def make_fabric(nranks=4, cores_per_node=1, model=None, **kw):
    sim = Simulator()
    fab = Fabric(sim, ClusterTopology(nranks, cores_per_node), model, **kw)
    deliveries = []
    for r in range(nranks):
        fab.register_handler(r, lambda p, s, r=r: deliveries.append((r, s, p, sim.now)))
    return sim, fab, deliveries


class TestTiming:
    def test_uncontended_latency(self):
        sim, fab, dlv = make_fabric()
        m = fab.model
        fab.send(0, 1, 1000, "x")
        sim.run_until_idle()
        assert dlv[0][3] == pytest.approx(m.one_way(1000, False))

    def test_local_complete_before_delivery(self):
        sim, fab, _ = make_fabric()
        t = fab.send(0, 1, 100000, "x")
        sim.run_until_idle()
        assert t.local_time < t.delivered_time
        assert t.delivered_time - t.local_time == pytest.approx(
            fab.model.internode_latency
        )

    def test_source_port_serializes(self):
        sim, fab, dlv = make_fabric()
        fab.send(0, 1, 1 << 20, "a")
        fab.send(0, 2, 1 << 20, "b")
        sim.run_until_idle()
        times = [t for (_, _, _, t) in dlv]
        ser = fab.model.transfer_time(1 << 20, False)
        assert times[1] - times[0] == pytest.approx(ser)

    def test_destination_port_serializes(self):
        sim, fab, dlv = make_fabric()
        fab.send(0, 2, 1 << 20, "a")
        fab.send(1, 2, 1 << 20, "b")
        sim.run_until_idle()
        times = sorted(t for (_, _, _, t) in dlv)
        ser = fab.model.transfer_time(1 << 20, False)
        assert times[1] - times[0] == pytest.approx(ser)

    def test_intranode_uses_shared_memory_path(self):
        sim, fab, dlv = make_fabric(cores_per_node=2)
        fab.send(0, 1, 1 << 20, "intra")  # same node
        sim.run_until_idle()
        assert dlv[0][3] == pytest.approx(fab.model.one_way(1 << 20, True))

    def test_loopback_immediate(self):
        sim, fab, dlv = make_fabric()
        t = fab.send(2, 2, 1 << 30, "self")
        assert t.local_time == t.delivered_time == 0.0
        assert dlv[0][3] == 0.0


class TestOrdering:
    def test_per_pair_fifo_even_mixed_sizes(self):
        sim, fab, dlv = make_fabric()
        fab.send(0, 1, 1 << 20, "big")
        fab.send(0, 1, 8, "small")
        sim.run_until_idle()
        payloads = [p for (_, _, p, _) in dlv]
        assert payloads == ["big", "small"]

    def test_flow_control_preserves_pair_order(self):
        model = NetworkModel(credits_per_peer=2)
        sim, fab, dlv = make_fabric(model=model)
        for i in range(10):
            fab.send(0, 1, 1000, i)
        sim.run_until_idle()
        assert [p for (_, _, p, _) in dlv] == list(range(10))


class TestFlowControlIntegration:
    def test_credit_exhaustion_delays(self):
        tight = NetworkModel(credits_per_peer=1, ack_latency=50.0)
        sim, fab, dlv = make_fabric(model=tight)
        fab.send(0, 1, 8, "a")
        fab.send(0, 1, 8, "b")
        sim.run_until_idle()
        gap = dlv[1][3] - dlv[0][3]
        assert gap >= 50.0  # waited for the ack
        assert fab.flow.pair_stats() == {(0, 1): (1, 1)}

    def test_a_stalled_send_looks_its_pool_up_once(self):
        sim, fab, dlv = make_fabric(model=NetworkModel(credits_per_peer=1))
        probes = []
        pool = fab.flow.pool
        fab.flow.pool = lambda src, dst: probes.append((src, dst)) or pool(src, dst)
        fab.send(0, 1, 8, "a")
        fab.send(0, 1, 8, "b")  # stalls
        sim.run_until_idle()
        assert fab.flow.pair_stats() == {(0, 1): (1, 1)} and len(dlv) == 2
        assert probes == [(0, 1), (0, 1)]

    def test_disabled_flow_control_no_stalls(self):
        sim, fab, dlv = make_fabric(model=NetworkModel(credits_per_peer=0))
        for _ in range(200):
            fab.send(0, 1, 8, "x")
        sim.run_until_idle()
        assert fab.flow.pair_stats() == {}
        assert len(dlv) == 200


class TestAttention:
    def test_attention_gated_delivery_waits(self):
        sim, fab, dlv = make_fabric()
        gate = fab.attention[1]
        gate.set_attentive(False)
        fab.send(0, 1, 8, "gated", kind=ServiceKind.CONTROL, needs_attention=True)
        fab.send(0, 1, 8, "free", kind=ServiceKind.CONTROL, needs_attention=False)
        sim.run_until_idle()
        assert [p for (_, _, p, _) in dlv] == ["free"]
        gate.set_attentive(True)
        sim.run_until_idle()
        assert [p for (_, _, p, _) in dlv] == ["free", "gated"]

    def test_attention_overhead_charged(self):
        sim, fab, dlv = make_fabric()
        fab.send(0, 1, 8, "a", needs_attention=True)
        fab.send(2, 1, 8, "b", needs_attention=False)  # distinct source port
        sim.run_until_idle()
        t_attn = next(t for (_, _, p, t) in dlv if p == "a")
        t_free = next(t for (_, _, p, t) in dlv if p == "b")
        # Allow for the tiny in-port serialization offset between the two.
        assert t_attn - t_free >= fab.model.host_attention_overhead - 0.01


class TestAccounting:
    def test_traffic_counters(self):
        sim, fab, _ = make_fabric()
        fab.send(0, 1, 100, "x")
        fab.send(1, 2, 200, "y")
        assert fab.messages_sent == 2
        assert fab.bytes_sent == 300

    def test_duplicate_handler_rejected(self):
        sim, fab, _ = make_fabric()
        with pytest.raises(ValueError):
            fab.register_handler(0, lambda p, s: None)

    def test_pin_region_charges_regcache(self):
        sim, fab, dlv = make_fabric()
        region = (0, 1 << 20)
        fab.send(0, 1, 1 << 20, "cold", pin_region=region)
        sim.run_until_idle()
        first = dlv[0][3]
        assert first > fab.model.one_way(1 << 20, False)  # pin cost added
        dlv.clear()
        t_send = sim.now
        fab.send(0, 1, 1 << 20, "warm", pin_region=region)  # cached now
        sim.run_until_idle()
        second = dlv[0][3] - t_send
        assert second == pytest.approx(fab.model.one_way(1 << 20, False))
        assert fab.regcache(0).hits == 1
