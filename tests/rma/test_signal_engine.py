"""Counter-signal engine: every epoch style over SignalBoard counters.

The protocol swap (ω-triples -> per-pair monotonic counters) must be
invisible at the MPI semantics level: the same workloads that pass on
the ω engines pass here, the data lands identically, and the board's
counters balance when the run drains.
"""

import numpy as np
import pytest

from repro import MODE_NOCHECK, MPIRuntime
from repro.rma.notify import SignalChannel
from repro.rma.window import MODE_NOSUCCEED
from tests.conftest import bytes_buf, make_runtime


def signal_runtime(nranks, **kwargs):
    return make_runtime(nranks, engine="signal", **kwargs)


class TestGats:
    def test_put_through_gats_epoch(self):
        def app(proc):
            win = yield from proc.win_allocate(64)
            yield from proc.barrier()
            if proc.rank == 0:
                yield from win.start([1, 2])
                win.put(np.int64([10]), 1, 0)
                win.put(np.int64([20]), 2, 0)
                yield from win.complete()
            else:
                yield from win.post([0])
                yield from win.wait_epoch()
            yield from proc.barrier()
            return int(win.view(np.int64)[0])

        assert signal_runtime(3).run(app)[1:] == [10, 20]

    def test_grant_and_done_counters_balance(self):
        boards = {}

        def app(proc):
            win = yield from proc.win_allocate(64)
            boards[proc.rank] = win.engine.state_of(win).board
            yield from proc.barrier()
            if proc.rank == 0:
                yield from win.start([1])
                win.put(bytes_buf(8, 7), 1, 0)
                yield from win.complete()
            else:
                yield from win.post([0])
                yield from win.wait_epoch()
            yield from proc.barrier()

        signal_runtime(2).run(app)
        # Target granted once toward the origin; origin sent one DONE back.
        assert boards[1].outbound[SignalChannel.GRANT, 0] == 1
        assert boards[0].inbound[SignalChannel.GRANT, 1] == 1
        assert boards[0].outbound[SignalChannel.DONE, 1] == 1
        assert boards[1].inbound[SignalChannel.DONE, 0] == 1
        # No ω traffic at all: the protocol really was replaced.
        assert not boards[0].snapshot().get("lock")

    def test_nocheck_gats_keeps_counters_aligned(self):
        """NOCHECK elides the wait, not the reservation: a later checked
        epoch toward the same peer must still match its own grant."""

        def app(proc):
            win = yield from proc.win_allocate(64)
            yield from proc.barrier()
            for value, assert_ in ((1, MODE_NOCHECK), (2, 0)):
                if proc.rank == 0:
                    yield from win.start([1], assert_=assert_)
                    win.put(np.int64([value]), 1, 8 * value)
                    yield from win.complete()
                else:
                    yield from win.post([0])
                    yield from win.wait_epoch()
                yield from proc.barrier()
            return win.view(np.int64).copy()

        res = signal_runtime(2).run(app)
        assert res[1][1] == 1 and res[1][2] == 2


class TestFence:
    def test_fence_rounds(self):
        def app(proc):
            win = yield from proc.win_allocate(8)
            yield from proc.barrier()
            yield from win.fence()
            seen = []
            for r in range(3):
                win.put(np.int64([r + 1]), (proc.rank + 1) % proc.size, 0)
                yield from win.fence()
                seen.append(int(win.view(np.int64)[0]))
            return seen

        for per_rank in signal_runtime(4).run(app):
            assert per_rank == [1, 2, 3]

    def test_fence_waits_for_laggard(self):
        """The FENCE_OPEN/FENCE_DONE channels carry round numbers: the
        closing fence must not pass until the slow rank's round closes."""
        times = {}

        def app(proc):
            win = yield from proc.win_allocate(8)
            yield from proc.barrier()
            yield from win.fence()
            if proc.rank == 0:
                yield from proc.compute(500.0)
                win.put(np.int64([9]), 1, 0)
            t0 = proc.wtime()
            yield from win.fence()
            times[proc.rank] = proc.wtime() - t0
            return int(win.view(np.int64)[0])

        res = signal_runtime(2).run(app)
        assert res[1] == 9
        assert times[1] >= 400.0  # rank 1 really waited for the laggard


class TestLocks:
    def test_exclusive_lock_accumulates(self):
        def app(proc):
            win = yield from proc.win_allocate(8)
            yield from proc.barrier()
            for _ in range(4):
                yield from win.lock(0)
                win.accumulate(np.int64([1]), 0, 0)
                yield from win.unlock(0)
            yield from proc.barrier()
            return int(win.view(np.int64)[0])

        res = signal_runtime(3).run(app)
        assert res[0] == 12

    def test_lock_all_flush(self):
        def app(proc):
            win = yield from proc.win_allocate(8 * proc.size)
            yield from proc.barrier()
            yield from win.lock_all()
            for peer in range(proc.size):
                win.put(np.int64([proc.rank + 1]), peer, 8 * proc.rank)
                yield from win.flush(peer)
            yield from win.unlock_all()
            yield from proc.barrier()
            return win.view(np.int64).copy()

        for mem in signal_runtime(3).run(app):
            np.testing.assert_array_equal(mem, [1, 2, 3])

    def test_contended_lock_signals_in_grant_order(self):
        """The host's k-th LOCK signal toward an origin matches the
        origin's k-th reservation even under contention."""

        def app(proc):
            win = yield from proc.win_allocate(8)
            yield from proc.barrier()
            if proc.rank != 0:
                for _ in range(3):
                    yield from win.lock(0)
                    win.accumulate(np.int64([1]), 0, 0)
                    yield from win.unlock(0)
            yield from proc.barrier()
            return int(win.view(np.int64)[0])

        res = signal_runtime(4).run(app)
        assert res[0] == 9  # 3 origins x 3 increments, no lost update


class TestRequestBased:
    def test_rput_rget_requests_complete(self):
        def app(proc):
            win = yield from proc.win_allocate(16)
            yield from proc.barrier()
            if proc.rank == 0:
                yield from win.lock(1)
                req = win.rput(np.int64([77]), 1, 0)
                yield from req.wait()
                back = np.empty(1, dtype=np.int64)
                greq = win.rget(back, 1, 0)
                yield from greq.wait()
                yield from win.unlock(1)
                assert int(back[0]) == 77
            yield from proc.barrier()
            return int(win.view(np.int64)[0])

        assert signal_runtime(2).run(app)[1] == 77

    def test_nonblocking_epoch_api(self):
        """The §V i* surface (istart/icomplete) drives the signal
        protocol exactly like the ω engine's deferred epochs."""

        def app(proc):
            win = yield from proc.win_allocate(8)
            yield from proc.barrier()
            if proc.rank == 0:
                win.istart([1])
                win.put(np.int64([5]), 1, 0)
                req = win.icomplete()
                yield from req.wait()
            else:
                win.ipost([0])
                req = win.iwait()
                yield from req.wait()
            yield from proc.barrier()
            return int(win.view(np.int64)[0])

        assert signal_runtime(2).run(app)[1] == 5


class TestObservability:
    def test_signal_metrics_and_trace(self):
        rt = signal_runtime(2, metrics=True, causal=True)

        def app(proc):
            win = yield from proc.win_allocate(8)
            yield from proc.barrier()
            if proc.rank == 0:
                yield from win.start([1])
                win.put(bytes_buf(8, 3), 1, 0)
                yield from win.complete()
            else:
                yield from win.post([0])
                yield from win.wait_epoch()
            yield from proc.barrier()

        rt.run(app)
        summary = rt.metrics_summary()
        counters = summary["counters"]
        assert counters["signal.sent"] >= 2  # at least GRANT + DONE
        assert counters["signal.recv"] == counters["signal.sent"]
        spans = rt.causal.spans
        sent = [s for s in spans if s.kind == "signal"]
        landed = [s for s in spans if s.kind == "msg" and s.meta["ptype"] == "SignalUpdate"]
        assert len(sent) == len(landed) == counters["signal.sent"]

    def test_no_leaks_after_drain(self):
        rt = signal_runtime(2)

        def app(proc):
            win = yield from proc.win_allocate(8)
            yield from proc.barrier()
            yield from win.fence()
            win.put(bytes_buf(8), (proc.rank + 1) % 2, 0)
            yield from win.fence(assert_=MODE_NOSUCCEED)

        rt.run(app)
        for eng in rt.engines:
            for ws in eng.states.values():
                assert ws.leak_report() == {}


class TestCrossEngineAgreement:
    @pytest.mark.parametrize("other", ["nonblocking", "mvapich", "adaptive"])
    def test_memory_matches_omega_engines(self, other):
        def app(proc):
            win = yield from proc.win_allocate(8 * proc.size)
            yield from proc.barrier()
            rng = np.random.default_rng(11 + proc.rank)
            for _ in range(6):
                target = int(rng.integers(0, proc.size))
                slot = int(rng.integers(0, proc.size))
                yield from win.lock(target)
                win.accumulate(np.int64([proc.rank + 1]), target, 8 * slot)
                yield from win.unlock(target)
            yield from proc.barrier()
            return win.view(np.int64).copy()

        ours = np.stack(MPIRuntime(4, cores_per_node=1, engine="signal").run(app))
        theirs = np.stack(MPIRuntime(4, cores_per_node=1, engine=other).run(app))
        np.testing.assert_array_equal(ours, theirs)
