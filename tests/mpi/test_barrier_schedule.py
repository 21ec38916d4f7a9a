"""The middleware-progressed barrier keeps every kernel position of the
generator barrier it replaced.

:func:`oracle_barrier` is that generator barrier, verbatim but for two
things: it calls the rank's ``P2PEngine`` directly (the application
surface rejects negative tags), and its tags start at -1000 (the
barrier's own range, -100 to -199, is taken by
:class:`~repro.mpi.p2p.DisseminationBarrier` on delivery, before any
matching).  Tags never reach the wire's timing, so each program runs
twice on fresh runtimes, once per barrier, and everything the kernel
can see must be equal: ``events_scheduled``, the final clock, the
messages sent and every rank's exit time from every barrier.
"""

from __future__ import annotations

import pytest

from repro.explore import ExplorationContext, PerturbationSpec
from repro.faults import FaultPlan, RankFault
from repro.mpi.p2p import DisseminationBarrier
from repro.mpi.requests import Request
from repro.simtime import SimProcess
from tests.conftest import make_runtime

SIZES = (2, 3, 5, 8, 33, 64)

_ORACLE_TAG = -1000


def oracle_barrier(proc):
    """Dissemination barrier: ceil(log2(n)) rounds of paired messages."""
    n = proc.size
    if n == 1:
        return
    p2p = proc.middleware.p2p
    rank = proc.rank
    k = 0
    dist = 1
    while dist < n:
        dst = (rank + dist) % n
        src = (rank - dist) % n
        sreq = p2p.isend(dst, 8, tag=_ORACLE_TAG - k)
        rreq = p2p.irecv(src, tag=_ORACLE_TAG - k)
        yield from sreq.wait()
        yield from rreq.wait()
        dist <<= 1
        k += 1


def middleware_barrier(proc):
    yield from proc.barrier()


def program(barrier, stagger=False, barriers=1, p2p=False):
    """``barriers`` barriers back to back; optionally a staggered entry
    and, around each barrier, an application message on the barrier's
    round-0 pair."""

    def app(proc):
        n, rank = proc.size, proc.rank
        if stagger:
            yield from proc.compute(2.5 * ((rank * 7) % 5))
        exits = []
        for b in range(barriers):
            reqs = []
            if p2p:
                reqs = [proc.isend((rank + 1) % n, 64, tag=b),
                        proc.irecv((rank - 1) % n, tag=b)]
            yield from barrier(proc)
            exits.append(proc.wtime())
            yield from proc.waitall(reqs)
        return exits

    return app


def observe(n, barrier, program_kw=None, explore_seed=None, fault_plan=None):
    exploration = None
    if explore_seed is not None:
        exploration = ExplorationContext.from_spec(
            PerturbationSpec(seed=explore_seed, max_extra_us=1.5))
    rt = make_runtime(n, cores_per_node=4, exploration=exploration, fault_plan=fault_plan)
    exits = rt.run(program(barrier, **(program_kw or {})))
    if fault_plan is not None:
        assert sum(rt.stats().faults_injected.values()) > 0
    return {
        "events": rt.sim.events_scheduled,
        "now": rt.sim.now,
        "messages": rt.fabric.messages_sent,
        "exits": exits,
    }


def assert_same(n, **kw):
    want = observe(n, oracle_barrier, **kw)
    got = observe(n, middleware_barrier, **kw)
    assert got == want


SCENARIOS = {
    "plain": {},
    "staggered": {"stagger": True},
    "back-to-back": {"stagger": True, "barriers": 3},
    "with-p2p": {"stagger": True, "barriers": 2, "p2p": True},
}


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("n", SIZES)
def test_same_schedule_as_the_generator_barrier(n, scenario):
    assert_same(n, program_kw=SCENARIOS[scenario])


@pytest.mark.parametrize("seed", (1, 2, 3, 4))
@pytest.mark.parametrize("n", (5, 33))
def test_same_schedule_under_a_perturbing_policy(n, seed):
    assert_same(n, program_kw=SCENARIOS["with-p2p"], explore_seed=seed)


@pytest.mark.parametrize("seed", (9, 21))
@pytest.mark.parametrize("n", (8, 33))
def test_same_schedule_under_light_chaos(n, seed):
    plan = FaultPlan.light_chaos(
        seed, drop=0.02, duplicate=0.01, delay_rate=0.02, delay_us=40.0,
        ranks=(RankFault(2, slow_extra_us=15.0),),
    )
    assert_same(n, program_kw=SCENARIOS["back-to-back"], fault_plan=plan)


def test_back_to_back_tokens_reach_a_rank_still_in_the_previous_barrier(monkeypatch):
    """The back-to-back scenario really exercises early tokens: some
    round-``k`` token of barrier ``b + 1`` arrives at a rank that has
    not left barrier ``b``."""
    arrivals: dict[tuple[int, int], int] = {}
    exited = [0] * 33
    early = []
    on_token = DisseminationBarrier.on_token

    def spy(self, k):
        rank = self.rank
        index = arrivals.get((rank, k), 0)  # which barrier this token belongs to
        arrivals[rank, k] = index + 1
        if index > exited[rank]:
            early.append((rank, k, index))
        on_token(self, k)

    def counting(proc):
        yield from proc.barrier()
        exited[proc.rank] += 1

    monkeypatch.setattr(DisseminationBarrier, "on_token", spy)
    observe(33, counting, SCENARIOS["back-to-back"])
    assert early


def test_a_large_barrier_builds_no_request_and_resumes_each_rank_once(monkeypatch):
    n = 1024
    rt = make_runtime(n)
    counts = {"requests": 0, "resumes": 0}
    request_init, step = Request.__init__, SimProcess._step

    def counting_init(self, *args, **kwargs):
        counts["requests"] += 1
        request_init(self, *args, **kwargs)

    def counting_step(self, event):
        counts["resumes"] += 1
        step(self, event)

    monkeypatch.setattr(Request, "__init__", counting_init)
    monkeypatch.setattr(SimProcess, "_step", counting_step)

    rt.run(middleware_barrier)
    # Per rank: the start, and the one resume out of the barrier.
    assert counts == {"requests": 0, "resumes": 2 * n}
