"""Flush routines: blocking, nonblocking (age-stamped), local variants."""

import numpy as np
import pytest

from tests.conftest import make_runtime

ALL_ENGINES = ("nonblocking", "mvapich", "adaptive", "signal")
NONBLOCKING_ENGINES = ("nonblocking", "signal")
FLUSH_CALLS = ("flush", "flush_local", "flush_all", "flush_local_all")


def _issue_result_op(win, kind, result):
    """One result-bearing op to rank 1, displacement 0; the target holds 7
    there and every op leaves 7 in ``result``."""
    if kind == "get":
        win.get(result, 1, 0)
    elif kind == "get_accumulate":
        win.get_accumulate(np.int64([0]), result, 1, 0)
    elif kind == "fetch_and_op":
        win.fetch_and_op(np.int64([1]), result, 1, 0)
    else:
        win.compare_and_swap(np.int64([0]), np.int64([9]), result, 1, 0)


class TestBlockingFlush:
    def test_flush_makes_data_visible_without_closing(self, engine):
        check = {}

        def origin(proc):
            win = yield from proc.win_allocate(64)
            yield from proc.barrier()
            yield from win.lock(1)
            win.put(np.int64([11]), 1, 0)
            yield from win.flush(1)
            check["after_flush"] = int(win.group.window_of(1).view(np.int64)[0])
            win.put(np.int64([22]), 1, 8)  # epoch still usable
            yield from win.unlock(1)
            yield from proc.barrier()

        def target(proc):
            win = yield from proc.win_allocate(64)
            yield from proc.barrier()
            yield from proc.barrier()
            return win.view(np.int64, 0, 2).copy()

        res = make_runtime(2, engine).run_mixed({0: origin, 1: target})
        assert check["after_flush"] == 11
        np.testing.assert_array_equal(res[1], [11, 22])

    def test_flush_with_no_ops_returns_immediately(self, engine):
        def app(proc):
            win = yield from proc.win_allocate(64)
            yield from proc.barrier()
            if proc.rank == 0:
                yield from win.lock(1)
                t0 = proc.wtime()
                yield from win.flush(1)
                assert proc.wtime() == t0
                yield from win.unlock(1)
            yield from proc.barrier()

        make_runtime(2, engine).run(app)

    def test_flush_all_in_lock_all(self, engine):
        def app(proc):
            win = yield from proc.win_allocate(64)
            yield from proc.barrier()
            if proc.rank == 0:
                yield from win.lock_all()
                for peer in range(proc.size):
                    win.put(np.int64([peer]), peer, 0)
                yield from win.flush_all()
                vals = [
                    int(win.group.window_of(p).view(np.int64)[0]) for p in range(proc.size)
                ]
                yield from win.unlock_all()
                yield from proc.barrier()
                return vals
            yield from proc.barrier()

        res = make_runtime(3, engine).run(app)
        assert res[0] == [0, 1, 2]

    def test_flush_local_faster_than_remote(self):
        """flush_local returns at local completion; flush waits for the
        remote completion — for a large internode put those differ by
        the wire latency at least."""
        times = {}

        def app(proc):
            win = yield from proc.win_allocate(2 << 20)
            yield from proc.barrier()
            if proc.rank == 0:
                data = np.zeros(1 << 20, dtype=np.uint8)
                yield from win.lock(1)
                win.put(data, 1, 0)
                yield from win.flush_local(1)
                times["local"] = proc.wtime()
                yield from win.flush(1)
                times["remote"] = proc.wtime()
                yield from win.unlock(1)
            yield from proc.barrier()

        make_runtime(2).run(app)
        # Same op: locally complete strictly before remotely complete.
        assert times["local"] < times["remote"]


class TestNonblockingFlush:
    def test_iflush_allows_new_ops_before_completion(self):
        """§VII-C: new RMA calls can be issued after an MPI_WIN_IFLUSH
        that is yet to complete, and the flush only covers older ops."""
        out = {}

        def app(proc):
            win = yield from proc.win_allocate(4 << 20)
            yield from proc.barrier()
            if proc.rank == 0:
                big = np.zeros(1 << 20, dtype=np.uint8)
                win.ilock(1)
                win.put(big, 1, 0)
                freq = win.iflush(1)
                win.put(big, 1, 1 << 20)  # younger than the flush stamp
                win.put(big, 1, 2 << 20)
                yield from freq.wait()
                out["flush_done_at"] = proc.wtime()
                req = win.iunlock(1)
                yield from req.wait()
                out["unlock_done_at"] = proc.wtime()
            yield from proc.barrier()

        make_runtime(2).run(app)
        # The flush covered only the first put: it completes well before
        # the unlock, which needs all three transfers.
        assert out["flush_done_at"] < out["unlock_done_at"] - 300.0

    def test_iflush_local(self):
        def app(proc):
            win = yield from proc.win_allocate(2 << 20)
            yield from proc.barrier()
            if proc.rank == 0:
                win.ilock(1)
                win.put(np.zeros(1 << 20, dtype=np.uint8), 1, 0)
                fl = win.iflush_local(1)
                fr = win.iflush(1)
                yield from fl.wait()
                t_local = proc.wtime()
                yield from fr.wait()
                t_remote = proc.wtime()
                req = win.iunlock(1)
                yield from req.wait()
                yield from proc.barrier()
                return (t_local, t_remote)
            yield from proc.barrier()

        res = make_runtime(2).run(app)
        t_local, t_remote = res[0]
        assert t_local < t_remote

    def test_iflush_all_and_local_all(self):
        def app(proc):
            win = yield from proc.win_allocate(64)
            yield from proc.barrier()
            if proc.rank == 0:
                win.ilock_all()
                for peer in range(proc.size):
                    win.put(np.int64([7]), peer, 0)
                fa = win.iflush_all()
                fla = win.iflush_local_all()
                yield from fa.wait()
                yield from fla.wait()
                vals = [
                    int(win.group.window_of(p).view(np.int64)[0]) for p in range(proc.size)
                ]
                req = win.iunlock_all()
                yield from req.wait()
                yield from proc.barrier()
                return vals
            yield from proc.barrier()

        res = make_runtime(3).run(app)
        assert res[0] == [7, 7, 7]

    def test_iflush_with_nothing_pending_completes_at_creation(self):
        def app(proc):
            win = yield from proc.win_allocate(64)
            yield from proc.barrier()
            if proc.rank == 0:
                win.ilock(1)
                req = win.iflush(1)
                assert req.done
                r = win.iunlock(1)
                yield from r.wait()
            yield from proc.barrier()

        make_runtime(2).run(app)


class TestLocalCompletionOfResults:
    """MPI-3.1 §11.5.4: after a local flush the result buffer of a get,
    get_accumulate, fetch_and_op or compare_and_swap holds the result."""

    @pytest.mark.parametrize(
        "kind", ("get", "get_accumulate", "fetch_and_op", "compare_and_swap"))
    @pytest.mark.parametrize(
        "engine, form",
        [(e, "flush_local") for e in ALL_ENGINES]
        + [(e, "iflush_local") for e in NONBLOCKING_ENGINES],
    )
    def test_local_flush_returns_after_the_result_lands(self, engine, form, kind):
        def app(proc):
            win = yield from proc.win_allocate(64)
            win.view(np.int64)[0] = 7
            yield from proc.barrier()
            seen = None
            if proc.rank == 0:
                result = np.zeros(1, dtype=np.int64)
                yield from win.lock(1)
                _issue_result_op(win, kind, result)
                if form == "flush_local":
                    yield from win.flush_local(1)
                else:
                    yield from win.iflush_local(1).wait()
                seen = int(result[0])
                yield from win.unlock(1)
            yield from proc.barrier()
            return seen

        assert make_runtime(2, engine).run(app)[0] == 7


@pytest.mark.parametrize("call", FLUSH_CALLS)
@pytest.mark.parametrize("engine", NONBLOCKING_ENGINES)
def test_blocking_flush_is_the_nonblocking_flush_plus_a_wait(engine, call):
    """The same lock_all program of accumulates, once with ``flush*`` and
    once with ``iflush*(...).wait()``: equal virtual time, kernel events,
    engine sweeps and window bytes."""

    def program(nonblocking):
        def app(proc):
            win = yield from proc.win_allocate(1024)
            yield from proc.barrier()
            yield from win.lock_all()
            for rnd in range(3):
                for peer in range(proc.size):
                    n = 64 if (peer + rnd) % 2 else 1
                    win.accumulate(np.full(n, proc.rank + rnd, dtype=np.int64), peer, 0)
                args = () if call.endswith("_all") else ((proc.rank + 1) % proc.size,)
                if nonblocking:
                    yield from getattr(win, "i" + call)(*args).wait()
                else:
                    yield from getattr(win, call)(*args)
            yield from win.unlock_all()
            yield from proc.barrier()
            return win.view(np.uint8).tobytes()

        rt = make_runtime(4, engine)
        res = rt.run(app)
        return rt.now, rt.sim.events_scheduled, sum(e.sweep_count for e in rt.engines), res

    assert program(nonblocking=False) == program(nonblocking=True)
