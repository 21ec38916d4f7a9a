"""AttentionGate and NIC port bookkeeping units."""


from repro.network.nic import AttentionGate, NicPorts


class TestAttentionGate:
    def test_starts_attentive(self, sim):
        gate = AttentionGate(sim, 0)
        assert gate.attentive

    def test_submit_runs_immediately_when_attentive(self, sim):
        gate = AttentionGate(sim, 0)
        ran = []
        gate.submit(lambda: ran.append(1))
        assert ran == [1]

    def test_submit_queues_when_inattentive(self, sim):
        gate = AttentionGate(sim, 0)
        gate.set_attentive(False)
        ran = []
        gate.submit(lambda: ran.append(1))
        assert ran == [] and gate.pending == 1
        gate.set_attentive(True)
        sim.run_until_idle()
        assert ran == [1] and gate.pending == 0

    def test_fifo_drain_order(self, sim):
        gate = AttentionGate(sim, 0)
        gate.set_attentive(False)
        ran = []
        for i in range(4):
            gate.submit(lambda i=i: ran.append(i))
        gate.set_attentive(True)
        sim.run_until_idle()
        assert ran == [0, 1, 2, 3]

    def test_requeue_if_attention_lost_before_drain(self, sim):
        gate = AttentionGate(sim, 0)
        gate.set_attentive(False)
        ran = []
        gate.submit(lambda: ran.append("a"))
        gate.set_attentive(True)   # schedules the drain...
        gate.set_attentive(False)  # ...but attention is gone again
        sim.run_until_idle()
        assert ran == []
        gate.set_attentive(True)
        sim.run_until_idle()
        assert ran == ["a"]

    def test_redundant_set_is_noop(self, sim):
        gate = AttentionGate(sim, 0)
        gate.set_attentive(True)
        gate.set_attentive(True)
        assert gate.attentive


class TestNicPorts:
    def test_pairs_independent(self):
        ports = NicPorts()
        ports.internode.out_free = 5.0
        assert ports.intranode.out_free == 0.0
