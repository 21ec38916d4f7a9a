"""Reserved positions against an event per no-op: the equivalence gate.

A credit coming home to a pool nobody waits on, and a local completion
nobody listens for, are reserved positions in the event order instead of
heap entries; and a pool a fresh one would stand in for is dropped.  The
reference this is held to is the behaviour it replaced, kept here as
three test-only subclasses — a ``CreditPool`` whose returns are always
scheduled, a ``FlowControl`` that keeps every pool to the end of the run
and a ``Fabric`` whose local completion is always scheduled.  Seeded
random programs run through both and must agree on everything
observable, down to ``events_scheduled``.
"""

import random

import numpy as np
import pytest

from repro import MPIRuntime
from repro.explore.context import ExplorationContext
from repro.explore.policy import PerturbationSpec
from repro.faults import FaultKind, FaultPlan, FaultRule
from repro.faults.injector import FaultInjector
from repro.faults.reliability import ReliabilityLayer
from repro.network import ClusterTopology, CreditPool, Fabric, FlowControl, NetworkModel
from repro.network.fabric import SendTicket
from repro.simtime import Simulator


class ScheduledReturnsPool(CreditPool):
    """Every returning credit is a ``release`` callback."""

    __slots__ = ()

    def return_after(self, delay):
        self.sim.schedule(delay, self.release)


class KeepingFlowControl(FlowControl):
    """Every pool lives to the end of the run: nothing is ever swept."""

    def _sweep(self):
        self._room = float("inf")


class SweepingFlowControl(FlowControl):
    """Sweeps before every probe: dropping a pool must be invisible
    whenever it happens, not only when the pool count grows."""

    def pool(self, src, dst):
        self._sweep()
        return super().pool(src, dst)


class ScheduledLocalFabric(Fabric):
    """Every transmission attempt schedules its local completion."""

    def _start_transfer(self, ticket, pool):
        if ticket._local_pos is False:
            ticket._local_pos = None  # as if somebody listened already
        super()._start_transfer(ticket, pool)


def use_reference(monkeypatch):
    monkeypatch.setattr("repro.network.flowcontrol.CreditPool", ScheduledReturnsPool)
    monkeypatch.setattr("repro.network.fabric.FlowControl", KeepingFlowControl)
    monkeypatch.setattr("repro.mpi.runtime.Fabric", ScheduledLocalFabric)


# -- the seeded programs ------------------------------------------------------
SIZES = (0, 8, 2048, 40_000)  # eager (the first one zero-byte) ... rendezvous


class Program:
    """One random program: a few rounds of two-sided traffic, a compute
    phase and a burst of puts per rank, under a random machine."""

    def __init__(self, seed):
        rng = random.Random(seed)
        self.seed = seed
        self.nranks = n = rng.choice((3, 4))
        self.cores_per_node = rng.choice((1, 2))
        self.credits = rng.choice((1, 2, 64))
        self.engine = rng.choice(("nonblocking", "mvapich", "signal"))
        self.policy_seed = rng.getrandbits(32) if rng.random() < 0.5 else None
        self.max_extra_us = rng.choice((0.0, 0.5))
        self.fault_seed = rng.getrandbits(16) if rng.random() < 0.3 else None
        self.rounds = []
        for _ in range(rng.randint(1, 3)):
            msgs = [(src, rng.choice([r for r in range(n) if r != src]), rng.choice(SIZES))
                    for src in range(n) for _ in range(rng.randint(0, 2))]
            compute = [rng.choice((0.0, 0.5, 4.0)) for _ in range(n)]
            puts = [(rng.choice([r for r in range(n) if r != src]), rng.randint(0, 5),
                     rng.choice((8, 4096))) for src in range(n)]
            self.rounds.append((msgs, compute, puts))
        #: (virtual time, ticket index): listeners that arrive late.
        self.probes = [(rng.uniform(0.0, 60.0), rng.randrange(40)) for _ in range(6)]

    def __repr__(self):
        return (f"<program {self.seed}: {self.nranks} ranks/{self.cores_per_node} per node, "
                f"{self.engine}, credits={self.credits}, policy={self.policy_seed}, "
                f"faults={self.fault_seed}>")

    def app(self, proc):
        win = yield from proc.win_allocate(4096)
        for tag, (msgs, compute, puts) in enumerate(self.rounds):
            reqs = [proc.irecv(src, tag=tag) for src, dst, _ in msgs if dst == proc.rank]
            reqs += [proc.isend(dst, size, tag=tag) for src, dst, size in msgs
                     if src == proc.rank]
            yield from proc.compute(compute[proc.rank])
            yield from proc.waitall(reqs)
            target, count, nbytes = puts[proc.rank]
            if count:
                data = np.full(nbytes, proc.rank + 1, dtype=np.uint8)
                yield from win.lock(target)
                for _ in range(count):
                    win.put(data, target, 0)
                yield from win.unlock(target)
        yield from proc.barrier()
        return [r.completed_at for r in reqs], int(win.view()[0])

    def run(self, monkeypatch):
        """Everything observable about one run, as one comparable dict."""
        log = []
        tickets = []
        spec = (PerturbationSpec(self.policy_seed, max_extra_us=self.max_extra_us)
                if self.policy_seed is not None else None)
        plan = (FaultPlan.light_chaos(self.fault_seed, drop=0.05, duplicate=0.03,
                                      delay_rate=0.05)
                if self.fault_seed is not None else None)
        rt = MPIRuntime(
            self.nranks, cores_per_node=self.cores_per_node, engine=self.engine,
            model=NetworkModel().with_overrides(credits_per_peer=self.credits),
            fault_plan=plan,
            exploration=ExplorationContext.from_spec(spec) if spec is not None else None,
        )
        sim, fabric = rt.sim, rt.fabric

        for rank, handler in enumerate(fabric._handler_list):
            def deliver(payload, src, rank=rank, handler=handler):
                log.append(("deliver", sim.now, src, rank, type(payload).__name__))
                handler(payload, src)
            fabric._handler_list[rank] = deliver

        start_transfer, send = fabric._start_transfer, fabric.send

        def grant(ticket, pool):
            log.append(("grant", sim.now, ticket.src, ticket.dst))
            start_transfer(ticket, pool)

        def capture(*args, **kwargs):
            ticket = send(*args, **kwargs)
            tickets.append(ticket)
            return ticket

        fabric._start_transfer, fabric.send = grant, capture

        on_local = SendTicket.on_local_complete

        def listen(ticket, fn, *args):
            def fired(*a):
                log.append(("local", sim.now, ticket.src, ticket.dst))
                fn(*a)
            on_local(ticket, fired, *args)

        def probe(index):
            if index < len(tickets):
                tickets[index].on_local_complete(log.append, ("late", index, sim.now))

        for when, index in self.probes:
            sim.schedule(when, probe, index)

        with monkeypatch.context() as patch:
            patch.setattr(SendTicket, "on_local_complete", listen)
            results = rt.run(self.app)
        stats = rt.stats()
        return {
            "results": results,
            "log": log,
            # Asked after the fact: every ticket answers with the instant
            # its out-port was done, listened to or not.
            "local_times": [t.local_time for t in tickets],
            "delivered_times": [t.delivered_time for t in tickets],
            "pair_stats": fabric.flow.pair_stats(),
            "stall_count": stats.fc_stalls,
            "max_queued": stats.fc_max_queued,
            "retransmissions": stats.retransmissions,
            "events_scheduled": sim.events_scheduled,
            "now": sim.now,
        }


SEEDS_PER_CASE = 25


@pytest.mark.parametrize("first", range(0, 200, SEEDS_PER_CASE))
def test_random_programs_agree_with_the_event_per_noop_reference(first, monkeypatch):
    for seed in range(first, first + SEEDS_PER_CASE):
        program = Program(seed)
        got = program.run(monkeypatch)
        with monkeypatch.context() as reference:
            use_reference(reference)
            want = program.run(reference)
        for field in want:
            assert got[field] == want[field], f"{program}: {field} differs"


@pytest.mark.parametrize("first", range(0, 200, 2 * SEEDS_PER_CASE))
def test_random_programs_agree_when_every_probe_sweeps(first, monkeypatch):
    for seed in range(first, first + 2 * SEEDS_PER_CASE, 2):
        program = Program(seed)
        with monkeypatch.context() as stressed:
            stressed.setattr("repro.network.fabric.FlowControl", SweepingFlowControl)
            got = program.run(stressed)
        with monkeypatch.context() as reference:
            use_reference(reference)
            want = program.run(reference)
        for field in want:
            assert got[field] == want[field], f"{program}: {field} differs"


def test_the_programs_reach_the_regimes_that_matter(monkeypatch):
    """The property is only worth its runtime if the programs stall,
    retransmit, tie, leave credits uncounted and drop pools: count,
    don't hope."""
    stalled = retransmitted = policies = unlistened = swept = dropped = 0
    sweep = FlowControl._sweep

    def counting_sweep(flow):
        nonlocal dropped
        before = len(flow._pools)
        sweep(flow)
        dropped += before - len(flow._pools)

    monkeypatch.setattr(FlowControl, "_sweep", counting_sweep)
    for seed in range(0, 200, 4):
        program = Program(seed)
        dropped = 0
        out = program.run(monkeypatch)
        swept += dropped > 0
        stalled += out["stall_count"] > 0
        retransmitted += out["retransmissions"] > 0
        policies += program.policy_seed is not None
        unlistened += sum(1 for e in out["log"] if e[0] == "grant") > \
            sum(1 for e in out["log"] if e[0] == "local")
    assert stalled >= 10 and retransmitted >= 5 and policies >= 15 and unlistened >= 40
    assert swept >= 20


# -- the ticket's side, case by case ------------------------------------------
def make_fabric(model=None, **kw):
    sim = Simulator()
    fabric = Fabric(sim, ClusterTopology(2, 1), model, **kw)
    for rank in range(2):
        fabric.register_handler(rank, lambda payload, src: None)
    return sim, fabric


class TestLocalCompletion:
    def test_unlistened_send_costs_one_heap_entry_and_three_positions(self):
        sim, fabric = make_fabric()
        fabric.send(0, 1, 1000, "x")
        assert sim.events_scheduled == 3  # local completion, credit return, arrival
        assert sim.pending_callbacks == 1  # the arrival
        # The run ends where the credit comes home, after the arrival.
        assert sim.run() == pytest.approx(
            fabric.model.one_way(1000, False) + fabric.model.ack_latency)

    def test_listener_in_the_sending_frame_claims_the_reserved_instant(self):
        sim, fabric = make_fabric()
        fired = []
        ticket = fabric.send(0, 1, 100_000, "x")
        ticket.on_local_complete(lambda: fired.append(sim.now))
        assert sim.pending_callbacks == 2
        sim.run()
        assert fired == [fabric.model.transfer_time(100_000, False)]
        assert ticket.local_time == fired[0]

    def test_late_listener_sees_the_reserved_time(self):
        sim, fabric = make_fabric()
        ticket = fabric.send(0, 1, 100_000, "x")
        sim.run()
        assert sim.now > fabric.model.transfer_time(100_000, False)
        assert ticket.local_time == fabric.model.transfer_time(100_000, False)
        # ... and a flat callback takes the already-done path.
        fired = []
        ticket.on_local_complete(fired.append, "late")
        sim.run()
        assert fired == ["late"]

    def test_listener_between_send_and_the_reserved_instant_still_claims(self):
        sim, fabric = make_fabric()
        fired = []
        ticket = fabric.send(0, 1, 100_000, "x")
        done_at = fabric.model.transfer_time(100_000, False)
        sim.schedule(done_at / 2, ticket.on_local_complete, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [done_at]

    def test_send_that_stalled_with_a_listener_attached_schedules(self):
        tight = NetworkModel(credits_per_peer=1)
        sim, fabric = make_fabric(tight)
        fired = []
        fabric.send(0, 1, 8, "first")
        stalled = fabric.send(0, 1, 8, "second")
        stalled.on_local_complete(lambda: fired.append(sim.now))
        assert stalled._local_pos is None  # nothing reserved: no attempt yet
        sim.run()
        assert fabric.flow.pair_stats() == {(0, 1): (1, 1)}
        assert len(fired) == 1 and fired[0] > tight.ack_latency
        assert stalled.local_time == fired[0]

    def test_zero_byte_send_completes_locally_at_once(self):
        # Nothing to reserve ahead of the clock: it is scheduled.
        sim, fabric = make_fabric()
        ticket = fabric.send(0, 1, 0, "x")
        assert ticket._local_pos is None
        sim.run()
        assert ticket.local_time == 0.0

    @pytest.mark.parametrize("listen_early", (True, False))
    def test_retransmitted_message_fires_local_completion_once(self, listen_early):
        # The first attempt is dropped and the reliability layer
        # re-serializes the same buffer; "buffer reusable" belongs to the
        # first attempt, whether it was claimed, or only reserved and
        # asked about after the fact.
        sim = Simulator()
        plan = FaultPlan(seed=1, rules=(FaultRule(FaultKind.DROP, 1.0, stop_count=1),))
        injector = FaultInjector(sim, plan)
        fabric = Fabric(sim, ClusterTopology(2, 1), injector=injector,
                        reliability=ReliabilityLayer(sim))
        injector.install(fabric)
        for rank in range(2):
            fabric.register_handler(rank, lambda payload, src: None)
        done_at = fabric.model.transfer_time(100_000, False)
        fired = []
        ticket = fabric.send(0, 1, 100_000, "x")
        if listen_early:
            ticket.on_local_complete(lambda: fired.append(sim.now))
        sim.run()
        assert fabric.reliability.retransmissions >= 1  # (the first ack is lost too)
        if not listen_early:
            ticket.on_local_complete(fired.append, done_at)
            sim.run()
        assert fired == [done_at]
        assert ticket.local_time == done_at
