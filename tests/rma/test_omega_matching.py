"""ω-triple epoch matching (§VII-B): invariants and property tests."""

from collections import defaultdict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rma.notify import SignalChannel, row_items
from tests.conftest import make_runtime

GRANT, DONE = SignalChannel.GRANT, SignalChannel.DONE


def omega(runtime, rank, gid=0):
    """The (a, e, g) triples of one rank's window state: the GRANT rows
    of its board, as ``{peer: value}`` (absent peers read 0)."""
    board = runtime.engines[rank].states[gid].board
    return tuple(
        defaultdict(int, row_items(mat, GRANT))
        for mat in (board.expected, board.outbound, board.inbound)
    )


class TestCounterInvariants:
    def test_access_ids_sequential_per_target(self):
        """A_i = ++a_l: k epochs toward one target use ids 1..k."""
        rt = make_runtime(2)
        k = 4

        def app(proc):
            win = yield from proc.win_allocate(64)
            yield from proc.barrier()
            if proc.rank == 0:
                for _ in range(k):
                    yield from win.start([1])
                    win.put(np.int64([1]), 1, 0)
                    yield from win.complete()
            else:
                for _ in range(k):
                    yield from win.post([0])
                    yield from win.wait_epoch()
            yield from proc.barrier()

        rt.run(app)
        a0, e0, g0 = omega(rt, 0)
        a1, e1, g1 = omega(rt, 1)
        assert a0[1] == k      # origin requested k accesses to rank 1
        assert e1[0] == k      # target opened k exposures toward rank 0
        assert g0[1] == k      # origin obtained k grants from rank 1
        assert a1[0] == 0  # target requested nothing

    def test_lock_grants_update_e_and_g(self):
        """§VII-B: lock grants bump e locally and g remotely even though
        no exposure epoch exists."""
        rt = make_runtime(2)

        def app(proc):
            win = yield from proc.win_allocate(64)
            yield from proc.barrier()
            if proc.rank == 0:
                for _ in range(3):
                    yield from win.lock(1)
                    yield from win.unlock(1)
            yield from proc.barrier()

        rt.run(app)
        a0, _, g0 = omega(rt, 0)
        _, e1, _ = omega(rt, 1)
        assert a0[1] == 3 and g0[1] == 3 and e1[0] == 3

    def test_granted_iff_a_le_g(self):
        rt = make_runtime(2)

        def app(proc):
            win = yield from proc.win_allocate(64)
            yield from proc.barrier()
            if proc.rank == 0:
                yield from win.start([1])
                win.put(np.int64([1]), 1, 0)
                yield from win.complete()
            else:
                yield from win.post([0])
                yield from win.wait_epoch()
            yield from proc.barrier()

        rt.run(app)
        board0 = rt.engines[0].states[0].board
        assert board0.reached(GRANT, 1, 1)
        assert not board0.reached(GRANT, 1, 2)

    def test_done_ids_track_access_ids(self):
        rt = make_runtime(2)

        def app(proc):
            win = yield from proc.win_allocate(64)
            yield from proc.barrier()
            if proc.rank == 0:
                for _ in range(2):
                    yield from win.start([1])
                    yield from win.complete()
            else:
                for _ in range(2):
                    yield from win.post([0])
                    yield from win.wait_epoch()
            yield from proc.barrier()

        rt.run(app)
        assert rt.engines[1].states[0].board.inbound[DONE, 0] == 2


class TestMatchingProperties:
    @given(epochs=st.integers(1, 12), seed=st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_fifo_matching_delivers_in_order(self, epochs, seed):
        """Property (rule 3): k back-to-back GATS epochs with randomized
        per-epoch delays always match FIFO — slot i gets value i."""
        rng = np.random.default_rng(seed)
        origin_delays = rng.uniform(0, 50, epochs)
        target_delays = rng.uniform(0, 50, epochs)
        rt = make_runtime(2)

        def origin(proc):
            win = yield from proc.win_allocate(8 * epochs)
            yield from proc.barrier()
            for i in range(epochs):
                yield from proc.compute(float(origin_delays[i]))
                win.istart([1])
                win.put(np.int64([i + 1]), 1, 8 * i)
                req = win.icomplete()
                yield from req.wait()
            yield from proc.barrier()

        def target(proc):
            win = yield from proc.win_allocate(8 * epochs)
            yield from proc.barrier()
            for i in range(epochs):
                yield from proc.compute(float(target_delays[i]))
                win.ipost([0])
                req = win.iwait()
                yield from req.wait()
            yield from proc.barrier()
            return win.view(np.int64, 0, epochs).copy()

        res = rt.run_mixed({0: origin, 1: target})
        np.testing.assert_array_equal(res[1], np.arange(1, epochs + 1))

    @given(nlocks=st.integers(1, 10), seed=st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_lock_epochs_counter_conservation(self, nlocks, seed):
        """After any interleaving of lock epochs from two origins, the
        target's e equals each origin's g and a (all grants consumed)."""
        rng = np.random.default_rng(seed)
        delays = rng.uniform(0, 30, (2, nlocks))
        rt = make_runtime(3)

        def make_origin(idx):
            def origin(proc):
                win = yield from proc.win_allocate(8)
                yield from proc.barrier()
                for i in range(nlocks):
                    yield from proc.compute(float(delays[idx][i]))
                    yield from win.lock(2)
                    win.accumulate(np.int64([1]), 2, 0)
                    yield from win.unlock(2)
                yield from proc.barrier()

            return origin

        def target(proc):
            win = yield from proc.win_allocate(8)
            yield from proc.barrier()
            yield from proc.barrier()
            return int(win.view(np.int64)[0])

        res = rt.run_mixed({0: make_origin(0), 1: make_origin(1), 2: target})
        assert res[2] == 2 * nlocks
        for o in (0, 1):
            a, _, g = omega(rt, o)
            assert a[2] == nlocks and g[2] == nlocks
        _, e2, _ = omega(rt, 2)
        assert e2[0] == nlocks and e2[1] == nlocks
