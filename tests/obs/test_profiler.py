"""7-step progress-engine profiler, wired through real runs."""

from time import perf_counter

import numpy as np
import pytest

from repro import A_A_E_R
from repro.obs.profiler import PROGRESS_STEPS, EngineProfiler
from repro.rma.engine.registry import ENGINES
from repro.simtime import Simulator
from tests.conftest import make_runtime


def all_steps_workload(proc):
    """Exercise every §VII-D step: GATS posts (2/4), deferred epochs
    (3/7), intranode FIFO traffic (5), a contended lock backlog (6),
    and op completions (1)."""
    # Every rank is simultaneously origin and target, so the deferred
    # engine needs A_A_E_R (see docs/SEMANTICS.md on circular waits).
    win = yield from proc.win_allocate(4096, info={A_A_E_R: 1})
    yield from proc.barrier()
    peer = (proc.rank + 1) % proc.size
    # GATS round: every rank exposes to its predecessor and accesses
    # its successor (exposure first, or complete/post circularly wait).
    yield from win.post([(proc.rank - 1) % proc.size])
    yield from win.start([peer])
    win.put(np.zeros(64, dtype=np.uint8), peer, 0)
    yield from win.complete()
    yield from win.wait_epoch()
    yield from proc.barrier()
    # Contended exclusive locks on one target build a lock backlog.
    yield from win.lock(0)
    win.put(np.ones(32, dtype=np.uint8), 0, proc.rank * 32)
    yield from win.unlock(0)
    yield from proc.barrier()
    return win.view(np.uint8).copy()


def two_sided_workload(proc):
    """Eager and rendezvous traffic, a compute phase and an allreduce:
    never enters the RMA stack (the shape of perf's ``p2p_ring``)."""
    left, right = (proc.rank - 1) % proc.size, (proc.rank + 1) % proc.size
    x = np.int64([proc.rank + 1])
    for it in range(3):
        small, big = np.full(8, x[0]), np.full(4096, x[0])  # 64 B eager, 32 KiB rendezvous
        recvs = [proc.irecv(left, tag=it), proc.irecv(right, tag=it)]
        sends = [proc.isend(left, 0, tag=it, data=small), proc.isend(right, 0, tag=it, data=big)]
        yield from proc.compute(2.0)
        from_left, from_right = yield from proc.waitall(recvs)
        yield from proc.waitall(sends)
        x = yield from proc.allreduce_sum(x + from_left[0] + from_right[-1])
    return x


class TestUnit:
    def test_record_and_tally(self):
        prof = EngineProfiler(Simulator())
        t = prof.lap(2, work=3, since=perf_counter() - 0.25)  # a step that began 0.25 s earlier
        prof.lap(2, work=1, since=t - 0.25)
        prof.tally(1)
        st = prof.steps[2]
        assert (st.invocations, st.work) == (2, 4)
        assert 0.5 <= st.wall_s < 1.0
        assert prof.steps[1].work == 1 and prof.steps[1].wall_s == 0.0

    def test_summary_covers_all_seven_steps(self):
        summary = EngineProfiler(Simulator()).summary()
        assert sorted(summary["steps"]) == [str(n) for n in range(1, 8)]
        for n, entry in summary["steps"].items():
            assert entry["name"] == PROGRESS_STEPS[int(n)]


class TestWired:
    def run_profiled(self, engine):
        # Two cores per node so ranks 0/1 share a node: the intranode
        # path (steps 4 and 5) is exercised alongside the internode one.
        rt = make_runtime(4, engine, cores_per_node=2, metrics=True)
        rt.run(all_steps_workload)
        return rt

    def test_every_step_does_work(self, engine):
        rt = self.run_profiled(engine)
        summary = rt.metrics_summary()["profile"]
        assert summary["sweeps"] == sum(e.sweep_count for e in rt.engines) > 0
        # The baseline engine issues ops eagerly, so the deferral steps
        # (2: internode post, 3: activate, 4: intranode post) are
        # exclusive to the nonblocking engine.
        expected = range(1, 8) if engine == "nonblocking" else (1, 5, 6, 7)
        idle = [
            f"{n}:{summary['steps'][str(n)]['name']}"
            for n in expected
            if summary["steps"][str(n)]["work"] == 0
        ]
        assert not idle, f"steps with zero work: {idle}"

    def test_wall_clock_only_on_timed_steps(self, engine):
        rt = self.run_profiled(engine)
        steps = rt.profiler.summary()["steps"]
        # Step 1 is event-driven (tally): no wall timing by design.
        assert steps["1"]["wall_ms"] == 0.0
        assert steps["1"]["work"] > 0
        assert sum(e["wall_ms"] for e in steps.values()) > 0.0

    def test_signal_engine_step_accounting(self):
        # The counter-signal engine runs the deferral steps (2/3/4) like
        # the nonblocking core it extends, but never touches the
        # notification FIFO: dones travel as one-sided signal writes,
        # so step 5 must stay idle even with ranks sharing a node.
        rt = self.run_profiled("signal")
        steps = rt.profiler.summary()["steps"]
        for n in (1, 2, 3, 4, 6, 7):
            assert steps[str(n)]["work"] > 0, f"step {n} idle"
        assert steps["5"]["work"] == 0
        assert steps["5"]["invocations"] > 0  # still swept, just empty

    def test_adaptive_engine_step_accounting(self):
        # The adaptive engine is the baseline plus lock-mode switching,
        # and runs the shared loop: every step works.  Steps 2/4 post
        # lock epochs only — one put per rank, two of them internode —
        # while the GATS puts leave from their epoch's closing
        # examination (step 3/7).
        rt = self.run_profiled("adaptive")
        steps = rt.profiler.summary()["steps"]
        for n in range(1, 8):
            assert steps[str(n)]["work"] > 0, f"step {n} idle"
        assert steps["2"]["work"] == steps["4"]["work"] == 2

    def test_profiler_absent_without_metrics(self):
        rt = make_runtime(2)
        assert rt.profiler is None
        assert not rt.metrics

    @pytest.mark.parametrize("engine", ENGINES)
    def test_profiling_does_not_change_virtual_time(self, engine):
        """The observed and the unobserved run are one code path: same
        schedule, same event count, same work, same answer with the
        profiler or the causal recorder attached — on an RMA program and
        on one that never leaves the two-sided layer.  ``python3 -m
        perf`` fails every operation of a traced rep whose ``events``
        differ from the untraced warm-up's, so this is what it rests on."""
        for app in (all_steps_workload, two_sided_workload):
            runs = []
            for obs in ({}, {"metrics": True}, {"causal": True}):
                rt = make_runtime(4, engine, cores_per_node=2, **obs)
                answers = rt.run(app)
                runs.append((
                    rt.now,
                    rt.sim.events_scheduled,
                    [(e.sweep_count, e.windows_visited, e.epochs_examined)
                     for e in rt.engines],
                    [a.tobytes() for a in answers],
                ))
            assert runs[0] == runs[1] == runs[2], app.__name__
