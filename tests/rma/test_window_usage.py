"""Window API usage validation and engine capability gating."""

import numpy as np
import pytest

from repro import RmaUsageError, UnsupportedOperation
from repro.rma.engine.registry import ENGINES
from tests.conftest import make_runtime


def expect_usage_error(app, nranks=2, engine="nonblocking", exc_type=RmaUsageError,
                       match=None):
    rt = make_runtime(nranks, engine)
    with pytest.raises(Exception) as exc:
        rt.run(app)
    err = getattr(exc.value, "original", exc.value)
    assert isinstance(err, exc_type), err
    if match is not None:
        assert match in str(err), err


#: One call to a rank outside a 2-rank window, and the epoch it runs in.
UNKNOWN_TARGET_CALLS = {
    "put-lock_all": ("lock_all", lambda win, t: win.put(np.int64([1]), t, 0)),
    "get-fence": ("fence", lambda win, t: win.get(np.zeros(1, np.int64), t, 0)),
    "flush": ("lock_all", lambda win, t: win.flush(t)),
    "flush_local": ("lock_all", lambda win, t: win.flush_local(t)),
    "iflush": ("lock_all", lambda win, t: win.iflush(t).wait()),
}
UNKNOWN_TARGET_CELLS = [
    (engine, call) for engine in ENGINES for call in UNKNOWN_TARGET_CALLS
    if call != "iflush" or engine in ("nonblocking", "signal")
]


class TestEpochRequired:
    def test_put_outside_epoch(self):
        def app(proc):
            win = yield from proc.win_allocate(64)
            win.put(np.zeros(8, dtype=np.uint8), (proc.rank + 1) % proc.size)

        expect_usage_error(app)

    def test_put_outside_gats_group(self):
        def app(proc):
            win = yield from proc.win_allocate(64)
            if proc.rank == 0:
                yield from win.start([1])
                win.put(np.zeros(8, dtype=np.uint8), 2)  # 2 not in group
            else:
                yield from win.post([0])

        expect_usage_error(app, nranks=3)

    def test_target_range_validated_against_target_window(self):
        def app(proc):
            # Rank 1's window is small.
            size = 1024 if proc.rank == 0 else 16
            win = yield from proc.win_allocate(size)
            if proc.rank == 0:
                yield from win.lock(1)
                win.put(np.zeros(64, dtype=np.uint8), 1, 0)

        expect_usage_error(app)

    @pytest.mark.parametrize("target", [7, -1])
    @pytest.mark.parametrize("engine,call", UNKNOWN_TARGET_CELLS)
    def test_unknown_target_rank_rejected(self, engine, call, target):
        epoch, issue = UNKNOWN_TARGET_CALLS[call]

        def app(proc):
            win = yield from proc.win_allocate(64)
            yield from proc.barrier()
            yield from (win.fence() if epoch == "fence" else win.lock_all())
            if proc.rank == 0:
                ret = issue(win, target)
                if ret is not None:
                    yield from ret
            yield from proc.barrier()

        expect_usage_error(app, engine=engine, match=f"target {target} unknown")


class TestEpochPairing:
    def test_complete_without_start(self):
        def app(proc):
            win = yield from proc.win_allocate(64)
            yield from win.complete()

        expect_usage_error(app)

    def test_wait_without_post(self):
        def app(proc):
            win = yield from proc.win_allocate(64)
            yield from win.wait_epoch()

        expect_usage_error(app)

    def test_double_start(self):
        def app(proc):
            win = yield from proc.win_allocate(64)
            if proc.rank == 0:
                yield from win.start([1])
                yield from win.start([1])

        expect_usage_error(app)

    def test_double_post(self):
        def app(proc):
            win = yield from proc.win_allocate(64)
            if proc.rank == 1:
                yield from win.post([0])
                yield from win.post([0])

        expect_usage_error(app)

    def test_unlock_unlocked_target(self):
        def app(proc):
            win = yield from proc.win_allocate(64)
            if proc.rank == 0:
                yield from win.unlock(1)

        expect_usage_error(app)

    def test_double_lock_same_target(self):
        def app(proc):
            win = yield from proc.win_allocate(64)
            if proc.rank == 0:
                yield from win.lock(1)
                yield from win.lock(1)

        expect_usage_error(app)

    def test_lock_during_lock_all(self):
        def app(proc):
            win = yield from proc.win_allocate(64)
            if proc.rank == 0:
                yield from win.lock_all()
                yield from win.lock(1)

        expect_usage_error(app)

    def test_lock_all_during_lock(self):
        def app(proc):
            win = yield from proc.win_allocate(64)
            if proc.rank == 0:
                yield from win.lock(1)
                yield from win.lock_all()

        expect_usage_error(app)

    def test_empty_groups_rejected(self):
        def app(proc):
            win = yield from proc.win_allocate(64)
            yield from win.start([])

        expect_usage_error(app)

    def test_invalid_lock_type(self):
        def app(proc):
            win = yield from proc.win_allocate(64)
            yield from win.lock(1, lock_type=99)

        expect_usage_error(app)

    def test_flush_outside_passive_epoch(self):
        def app(proc):
            win = yield from proc.win_allocate(64)
            yield from win.flush(1)

        expect_usage_error(app)

    def test_noprecede_with_pending_ops(self):
        def app(proc):
            win = yield from proc.win_allocate(64)
            yield from win.fence()
            if proc.rank == 0:
                win.put(np.zeros(4, dtype=np.uint8), 1)
            yield from win.fence(assert_=1)  # MODE_NOPRECEDE

        expect_usage_error(app)


class TestEngineCapabilities:
    @pytest.mark.parametrize(
        "routine",
        [
            lambda w: w.ifence(),
            lambda w: w.istart([1]),
            lambda w: w.icomplete(),
            lambda w: w.ipost([1]),
            lambda w: w.iwait(),
            lambda w: w.ilock(1),
            lambda w: w.iunlock(1),
            lambda w: w.ilock_all(),
            lambda w: w.iunlock_all(),
            lambda w: w.iflush(1),
            lambda w: w.iflush_local(1),
            lambda w: w.iflush_all(),
            lambda w: w.iflush_local_all(),
        ],
    )
    def test_mvapich_rejects_nonblocking_api(self, routine):
        def app(proc):
            win = yield from proc.win_allocate(64)
            if proc.rank == 0:
                routine(win)

        expect_usage_error(app, engine="mvapich", exc_type=UnsupportedOperation)

    def test_nonblocking_engine_accepts_api(self):
        rt = make_runtime(2)

        def app(proc):
            win = yield from proc.win_allocate(64)
            if proc.rank == 0:
                r1 = win.ilock(1)
                assert r1.done  # opening requests complete at creation
                r2 = win.iunlock(1)
                yield from r2.wait()
            yield from proc.barrier()

        rt.run(app)
