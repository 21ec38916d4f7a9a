"""The order gated deliveries leave the host-attention gate in.

The gate drains in queue order, but a drained delivery that finds the
gate closed again when its turn comes goes to the back of the queue,
behind whatever arrived since the drain: the queue is not FIFO per host
by construction.  What runs keep is the arrival order per (source,
destination) pair, which the fabric's FIFO lanes promise and the
middleware relies on; a seeded lock-epoch program with compute phases
(epoch work and think time) pins it.
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.apps.transactions import TransactionsConfig, run_transactions
from repro.network.fabric import Fabric
from repro.network.nic import AttentionGate
from repro.simtime import Simulator


def test_requeued_delivery_goes_behind_newer_arrivals():
    sim = Simulator()
    gate = AttentionGate(sim, rank=0)
    ran = []
    gate.set_attentive(False)
    gate.submit(ran.append, "a")
    gate.submit(ran.append, "b")
    gate.set_attentive(True)   # drains a, b: scheduled at this instant
    gate.set_attentive(False)  # closed again before they run
    gate.submit(ran.append, "c")
    sim.run()                  # a, b find the gate closed: requeued behind c
    assert ran == [] and gate.pending == 3
    gate.set_attentive(True)
    sim.run()
    assert ran == ["c", "a", "b"] and gate._queue == ()


def _by_pair(order):
    pairs = defaultdict(list)
    for src, dst, uid in order:
        pairs[src, dst].append(uid)
    return pairs


@pytest.mark.parametrize("nonblocking", [False, True], ids=["blocking", "deferred"])
def test_gated_deliveries_keep_per_pair_order(monkeypatch, nonblocking):
    admitted, released, requeues = [], [], []

    def admit(self, ticket):
        if ticket.needs_attention:
            admitted.append((ticket.src, ticket.dst, ticket.uid))
        orig_admit(self, ticket)

    def attn_deliver(self, ticket):
        released.append((ticket.src, ticket.dst, ticket.uid))
        orig_attn_deliver(self, ticket)

    def run_if_still_attentive(self, fn, args):
        if not self.attentive:
            requeues.append(self.rank)
        orig_run(self, fn, args)

    orig_admit, orig_attn_deliver = Fabric._admit, Fabric._attn_deliver
    orig_run = AttentionGate._run_if_still_attentive
    monkeypatch.setattr(Fabric, "_admit", admit)
    monkeypatch.setattr(Fabric, "_attn_deliver", attn_deliver)
    monkeypatch.setattr(AttentionGate, "_run_if_still_attentive", run_if_still_attentive)

    cfg = TransactionsConfig(
        16, txns_per_rank=12, slots_per_rank=16, work_in_epoch_us=2.0, think_time_us=3.0,
        engine="nonblocking", nonblocking=nonblocking, reorder=nonblocking, max_pending=8,
        seed=2014,
    )
    res = run_transactions(cfg)
    assert res.applied == res.total_txns

    # The compute phases close gates under queued and drained deliveries.
    assert requeues
    assert sorted(released) == sorted(admitted)
    # Per (source, destination) pair: released in arrival order.
    assert _by_pair(released) == _by_pair(admitted)
