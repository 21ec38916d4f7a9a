"""Adaptive lazy/eager lock engine (reference [12] strategy)."""

import numpy as np
import pytest

from repro import UnsupportedOperation
from tests.conftest import make_runtime

MB = 1 << 20
WORK = 500.0


def overlap_epoch_app(repeats, times, work_us=WORK):
    """Origin repeats the overlap pattern (put + work + unlock) against
    a passive target; records each epoch's duration."""

    def origin(proc):
        win = yield from proc.win_allocate(2 * MB)
        yield from proc.barrier()
        for _ in range(repeats):
            t0 = proc.wtime()
            yield from win.lock(1)
            win.put(np.zeros(MB, dtype=np.uint8), 1, 0)
            if work_us:
                yield from proc.compute(work_us)
            yield from win.unlock(1)
            times.append(proc.wtime() - t0)
        yield from proc.barrier()

    def target(proc):
        _win = yield from proc.win_allocate(2 * MB)
        yield from proc.barrier()
        yield from proc.barrier()

    return {0: origin, 1: target}


class TestLearning:
    def test_first_epoch_lazy_then_eager(self):
        """Epoch 1 behaves like the baseline (work + transfer serialized);
        once the engine observes the overlappable gap it promotes the
        pair and epoch 2+ overlap (≈ max(work, transfer))."""
        times = []
        rt = make_runtime(2, "adaptive")
        rt.run_mixed(overlap_epoch_app(3, times))
        first, second, third = times
        assert first > WORK + 300.0          # lazy: no overlap
        assert second < WORK + 100.0         # eager: overlapped
        assert third < WORK + 100.0
        assert rt.engines[0].is_eager(0, 1)

    def test_demotion_without_overlappable_work(self):
        """Epochs with no work gap demote the pair back to lazy."""
        rt = make_runtime(2, "adaptive")

        def origin(proc):
            win = yield from proc.win_allocate(2 * MB)
            yield from proc.barrier()
            # Promote:
            yield from win.lock(1)
            win.put(np.zeros(MB, dtype=np.uint8), 1, 0)
            yield from proc.compute(WORK)
            yield from win.unlock(1)
            assert proc.runtime.engines[0].is_eager(0, 1)
            # No-gap epoch demotes:
            yield from win.lock(1)
            win.put(np.zeros(1024, dtype=np.uint8), 1, 0)
            yield from win.unlock(1)
            yield from proc.barrier()

        def target(proc):
            _win = yield from proc.win_allocate(2 * MB)
            yield from proc.barrier()
            yield from proc.barrier()

        rt.run_mixed({0: origin, 1: target})
        assert not rt.engines[0].is_eager(0, 1)
        switches = [kind for (_, _, _, kind) in rt.engines[0].mode_switches]
        assert switches == ["eager", "lazy"]

    def test_modes_are_per_target(self):
        rt = make_runtime(3, "adaptive")

        def origin(proc):
            win = yield from proc.win_allocate(2 * MB)
            yield from proc.barrier()
            yield from win.lock(1)
            win.put(np.zeros(MB, dtype=np.uint8), 1, 0)
            yield from proc.compute(WORK)
            yield from win.unlock(1)
            yield from proc.barrier()

        def target(proc):
            _win = yield from proc.win_allocate(2 * MB)
            yield from proc.barrier()
            yield from proc.barrier()

        rt.run_mixed({0: origin, 1: target, 2: target})
        assert rt.engines[0].is_eager(0, 1)
        assert not rt.engines[0].is_eager(0, 2)

    def test_lock_all_learns_only_the_targets_it_touched(self):
        """A lock_all epoch names every rank, this one included; only the
        targets it put to had a gap to learn from."""
        rt = make_runtime(8, "adaptive")

        def app(proc):
            win = yield from proc.win_allocate(64)
            yield from proc.barrier()
            if proc.rank == 0:
                yield from win.lock_all()
                win.put(np.int64([1]), 1, 0)
                yield from proc.compute(50.0)
                yield from win.unlock_all()
            yield from proc.barrier()

        rt.run(app)
        engine = rt.engines[0]
        assert [(gid, target, mode) for _, gid, target, mode in engine.mode_switches] == [
            (0, 1, "eager")]
        assert [t for t in range(8) if engine.is_eager(0, t)] == [1]


class TestParity:
    def test_data_identical_to_other_engines(self):
        def app(proc):
            win = yield from proc.win_allocate(64)
            yield from proc.barrier()
            for i in range(3):
                yield from win.lock((proc.rank + 1) % proc.size)
                win.accumulate(np.int64([1]), (proc.rank + 1) % proc.size, 8 * i)
                yield from win.unlock((proc.rank + 1) % proc.size)
            yield from proc.barrier()
            return win.view(np.int64, 0, 3).copy()

        tables = {}
        for engine in ("adaptive", "mvapich", "nonblocking"):
            tables[engine] = np.stack(make_runtime(3, engine).run(app))
        np.testing.assert_array_equal(tables["adaptive"], tables["mvapich"])
        np.testing.assert_array_equal(tables["adaptive"], tables["nonblocking"])

    def test_still_blocking_only(self):
        def app(proc):
            win = yield from proc.win_allocate(64)
            if proc.rank == 0:
                win.ilock(1)

        rt = make_runtime(2, "adaptive")
        with pytest.raises(Exception) as exc:
            rt.run(app)
        err = getattr(exc.value, "original", exc.value)
        assert isinstance(err, UnsupportedOperation)

    def test_gats_and_fence_inherited_unchanged(self):
        def app(proc):
            win = yield from proc.win_allocate(64)
            yield from proc.barrier()
            yield from win.fence()
            win.put(np.int64([proc.rank]), (proc.rank + 1) % proc.size, 0)
            yield from win.fence(assert_=2)
            if proc.rank == 0:
                yield from win.start([1])
                win.put(np.int64([7]), 1, 8)
                yield from win.complete()
            elif proc.rank == 1:
                yield from win.post([0])
                yield from win.wait_epoch()
            yield from proc.barrier()
            return win.view(np.int64, 0, 2).copy()

        res = make_runtime(2, "adaptive").run(app)
        np.testing.assert_array_equal(res[1], [0, 7])
