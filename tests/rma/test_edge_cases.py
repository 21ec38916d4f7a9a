"""Edge cases across the RMA surface: zero-size ops, self-targeting,
interleaved windows, boundary sizes, mixed epoch families."""

import numpy as np
import pytest

from repro import MODE_NOSUCCEED
from tests.conftest import make_runtime


class TestZeroAndBoundarySizes:
    def test_zero_byte_put(self, engine):
        def app(proc):
            win = yield from proc.win_allocate(64)
            yield from proc.barrier()
            if proc.rank == 0:
                yield from win.lock(1)
                win.put(np.zeros(0, dtype=np.uint8), 1, 0)
                yield from win.unlock(1)
            yield from proc.barrier()

        make_runtime(2, engine).run(app)  # completes without error

    def test_put_at_exact_window_end(self, engine):
        def app(proc):
            win = yield from proc.win_allocate(64)
            yield from proc.barrier()
            if proc.rank == 0:
                yield from win.lock(1)
                win.put(np.int64([1]), 1, 56)  # last 8 bytes
                yield from win.unlock(1)
            yield from proc.barrier()
            return int(win.view(np.int64, 56, 1)[0])

        assert make_runtime(2, engine).run(app)[1] == 1

    def test_put_exactly_at_eager_threshold(self, engine):
        from repro.network import NetworkModel

        threshold = NetworkModel().eager_threshold

        def app(proc):
            win = yield from proc.win_allocate(2 * threshold + 8)
            yield from proc.barrier()
            if proc.rank == 0:
                yield from win.lock(1)
                win.put(np.full(threshold, 3, dtype=np.uint8), 1, 0)
                win.put(np.full(threshold + 1, 4, dtype=np.uint8), 1, threshold)
                yield from win.unlock(1)
            yield from proc.barrier()
            v = win.view(np.uint8)
            return int(v[0]), int(v[threshold]), int(v[2 * threshold])

        res = make_runtime(2, engine).run(app)
        assert res[1] == (3, 4, 4)

    def test_zero_size_window_rank(self, engine):
        """A rank may expose a zero-byte window (common for asymmetric
        windows); it can still originate accesses."""

        def app(proc):
            size = 0 if proc.rank == 0 else 64
            win = yield from proc.win_allocate(size)
            yield from proc.barrier()
            if proc.rank == 0:
                yield from win.lock(1)
                win.put(np.int64([9]), 1, 0)
                yield from win.unlock(1)
            yield from proc.barrier()
            if proc.rank == 1:
                return int(win.view(np.int64)[0])

        assert make_runtime(2, engine).run(app)[1] == 9


class TestSelfTargeting:
    def test_gats_to_self(self, engine):
        """A rank can be both origin and target of the same epoch pair.

        Under the paper's default serial-activation rule the access
        epoch would wait for the exposure epoch to complete — a circular
        dependency for self-matching — so this pattern needs A_A_E_R on
        the deferred-epoch engine (the baseline engine has no deferred
        queue and runs it plainly)."""
        from repro import A_A_E_R

        info = {A_A_E_R: 1} if engine == "nonblocking" else None

        def app(proc):
            win = yield from proc.win_allocate(64, info=info)
            yield from proc.barrier()
            out = None
            if proc.rank == 0:
                yield from win.post([0])
                yield from win.start([0])
                win.put(np.int64([5]), 0, 0)
                yield from win.complete()
                yield from win.wait_epoch()
                out = int(win.view(np.int64)[0])
            yield from proc.barrier()
            return out

        res = make_runtime(2, engine).run(app)
        assert res[0] == 5

    def test_fetch_and_op_on_self(self, engine):
        def app(proc):
            win = yield from proc.win_allocate(8)
            yield from proc.barrier()
            old = np.zeros(1, dtype=np.int64)
            yield from win.lock(proc.rank)
            win.fetch_and_op(np.int64(3), old, proc.rank, 0)
            yield from win.unlock(proc.rank)
            yield from proc.barrier()
            return int(win.view(np.int64)[0]), int(old[0])

        res = make_runtime(2, engine).run(app)
        assert res[0] == (3, 0) and res[1] == (3, 0)


class TestMixedEpochFamilies:
    def test_lock_during_fence_epoch_rejected(self, engine):
        """MPI-3 §11.5: access epochs at one process must be disjoint —
        a lock epoch cannot open inside a fence epoch."""
        from repro import RmaUsageError

        def app(proc):
            win = yield from proc.win_allocate(64)
            yield from proc.barrier()
            yield from win.fence()
            if proc.rank == 0:
                yield from win.lock(1)

        rt = make_runtime(3, engine)
        with pytest.raises(Exception) as exc:
            rt.run(app)
        err = getattr(exc.value, "original", exc.value)
        assert isinstance(err, RmaUsageError)

    def test_fence_during_lock_epoch_rejected(self, engine):
        from repro import RmaUsageError

        def app(proc):
            win = yield from proc.win_allocate(64)
            yield from proc.barrier()
            if proc.rank == 0:
                yield from win.lock(1)
                yield from win.fence()

        rt = make_runtime(2, engine)
        with pytest.raises(Exception) as exc:
            rt.run(app)
        err = getattr(exc.value, "original", exc.value)
        assert isinstance(err, RmaUsageError)

    def test_sequential_families_on_one_window(self, engine):
        """fence -> GATS -> lock on the same window, back to back."""

        def app(proc):
            win = yield from proc.win_allocate(64)
            yield from proc.barrier()
            # fence round
            yield from win.fence()
            if proc.rank == 0:
                win.put(np.int64([1]), 1, 0)
            yield from win.fence(assert_=MODE_NOSUCCEED)
            # GATS
            if proc.rank == 0:
                yield from win.start([1])
                win.put(np.int64([2]), 1, 8)
                yield from win.complete()
            else:
                yield from win.post([0])
                yield from win.wait_epoch()
            # lock
            if proc.rank == 0:
                yield from win.lock(1)
                win.put(np.int64([3]), 1, 16)
                yield from win.unlock(1)
            yield from proc.barrier()
            return win.view(np.int64, 0, 3).copy()

        res = make_runtime(2, engine).run(app)
        np.testing.assert_array_equal(res[1], [1, 2, 3])


class TestManyWindows:
    def test_rounds_independent_across_windows(self, engine):
        """Fence rounds are per-window; interleaving them must not
        cross-talk."""

        def app(proc):
            w1 = yield from proc.win_allocate(8)
            w2 = yield from proc.win_allocate(8)
            yield from proc.barrier()
            yield from w1.fence()
            yield from w2.fence()
            if proc.rank == 0:
                w1.put(np.int64([1]), 1, 0)
            yield from w1.fence(assert_=MODE_NOSUCCEED)
            if proc.rank == 0:
                w2.put(np.int64([2]), 1, 0)
            yield from w2.fence(assert_=MODE_NOSUCCEED)
            yield from proc.barrier()
            return int(w1.view(np.int64)[0]), int(w2.view(np.int64)[0])

        res = make_runtime(2, engine).run(app)
        assert res[1] == (1, 2)

    @staticmethod
    def _last_of_65_windows(proc):
        """GATS, fence and lock epochs on the 65th window (gid 64), each
        putting one value from one rank into the other."""
        for _ in range(65):
            win = yield from proc.win_allocate(24)
        yield from proc.barrier()

        def epoch(req_fn, blocking_fn, *args):
            if win.engine.supports_nonblocking:
                return (yield from req_fn(*args).wait())
            return (yield from blocking_fn(*args))

        if proc.rank == 0:
            yield from epoch(win.istart, win.start, [1])
            win.put(np.int64([1]), 1, 0)
            yield from epoch(win.icomplete, win.complete)
        else:
            yield from epoch(win.ipost, win.post, [0])
            yield from epoch(win.iwait, win.wait_epoch)
        yield from epoch(win.ifence, win.fence)
        if proc.rank == 1:
            win.put(np.int64([2]), 0, 8)
        yield from epoch(win.ifence, win.fence, MODE_NOSUCCEED)
        if proc.rank == 0:
            yield from epoch(win.ilock, win.lock, 1)
            win.put(np.int64([3]), 1, 16)
            yield from epoch(win.iunlock, win.unlock, 1)
        yield from proc.barrier()
        return win.view(np.int64).tolist()

    @pytest.mark.parametrize("cores_per_node", [2, 1], ids=["one_node", "two_nodes"])
    @pytest.mark.parametrize("engine", ["nonblocking", "mvapich", "adaptive", "signal"])
    def test_more_than_64_windows(self, engine, cores_per_node):
        """Intranode dones of window 64 ride the FIFO (one node) and
        internode ones a ``DonePacket`` (two nodes): both land."""
        rt = make_runtime(2, engine, cores_per_node=cores_per_node)
        assert rt.run(self._last_of_65_windows) == [[0, 2, 0], [1, 0, 3]]

    def test_more_than_64_windows_explored(self):
        """The explorer keys window 64's grants and dones too."""
        from repro.explore import ExplorationContext

        ctx = ExplorationContext()
        rt = make_runtime(2, "nonblocking", cores_per_node=2, exploration=ctx)
        assert rt.run(self._last_of_65_windows) == [[0, 2, 0], [1, 0, 3]]
        assert {(kind, value >> 30) for _, kind, _, value in ctx.notifications} >= {
            ("grant", 64), ("done", 64)}


class TestRunSubsets:
    def test_runtime_run_on_rank_subset(self):
        rt = make_runtime(4)

        def app(proc):
            yield from proc.compute(1.0)
            return proc.rank

        res = rt.run_mixed({1: app, 3: app})
        assert res == {1: 1, 3: 3}
