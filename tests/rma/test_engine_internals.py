"""Engine internals: deferred-epoch recording/replay, progress-sweep
behaviour."""

import numpy as np
import pytest

from repro.rma.epoch import EpochState
from tests.conftest import make_runtime


class TestDeferredRecording:
    def test_ops_recorded_while_deferred_then_replayed(self):
        """§VII-A: communication calls on a deferred epoch are recorded
        and fulfilled on activation — verified through final memory."""
        states = {}

        def origin(proc):
            win = yield from proc.win_allocate(64)
            yield from proc.barrier()
            # Epoch 1: stuck until rank 1 posts (at 300 µs).
            win.istart([1])
            win.put(np.int64([1]), 1, 0)
            r1 = win.icomplete()
            # Epoch 2 to rank 2: deferred (no flags). Its put is recorded.
            win.istart([2])
            win.put(np.int64([2]), 2, 0)
            ws = proc.runtime.engines[proc.rank].states[win.group.gid]
            ep2 = [e for e in ws.epochs if e.state is EpochState.DEFERRED][0]
            states["recorded_ops"] = ep2.undelivered
            states["issued_while_deferred"] = ep2.undelivered - ep2.unissued_count
            r2 = win.icomplete()  # closed while still deferred
            states["closed_while_deferred"] = ep2.app_closed and ep2.deferred
            yield from proc.waitall([r1, r2])
            yield from proc.barrier()

        def late_target(proc):
            win = yield from proc.win_allocate(64)
            yield from proc.barrier()
            yield from proc.compute(300.0)
            yield from win.post([0])
            yield from win.wait_epoch()
            yield from proc.barrier()

        def ready_target(proc):
            win = yield from proc.win_allocate(64)
            yield from proc.barrier()
            yield from win.post([0])
            yield from win.wait_epoch()
            yield from proc.barrier()
            return int(win.view(np.int64)[0])

        res = make_runtime(3).run_mixed({0: origin, 1: late_target, 2: ready_target})
        assert states["recorded_ops"] == 1
        assert states["issued_while_deferred"] == 0
        assert states["closed_while_deferred"] is True
        assert res[2] == 2  # replayed after activation

    def test_deferred_epoch_closed_and_completed_in_one_go(self):
        """An epoch that is opened, filled and closed while deferred
        still runs its whole internal lifetime correctly."""

        def app(proc):
            win = yield from proc.win_allocate(64)
            yield from proc.barrier()
            if proc.rank == 0:
                reqs = []
                for i in range(3):
                    win.ilock(1)
                    win.put(np.int64([i + 1]), 1, 8 * i)
                    reqs.append(win.iunlock(1))
                # Epochs 2 and 3 were fully specified while deferred.
                yield from proc.waitall(reqs)
            yield from proc.barrier()
            return win.view(np.int64, 0, 3).copy()

        res = make_runtime(2).run(app)
        np.testing.assert_array_equal(res[1], [1, 2, 3])


class TestProgressBehaviour:
    def test_engine_states_isolated_per_rank(self):
        rt = make_runtime(3)

        def app(proc):
            win = yield from proc.win_allocate(64)
            yield from proc.barrier()
            if proc.rank == 0:
                yield from win.lock(1)
                win.put(np.int64([1]), 1, 0)
                yield from win.unlock(1)
            yield from proc.barrier()

        rt.run(app)
        # Rank 2 never participated: its counters stay empty.
        board2 = rt.engines[2].states[0].board
        assert len(board2.expected) == 0
        assert len(board2.outbound) == 0

    def test_epoch_retirement_keeps_state_bounded(self):
        """Completed + closed epochs are retired from the window state
        (memory does not grow with epoch count)."""
        rt = make_runtime(2)

        def app(proc):
            win = yield from proc.win_allocate(64)
            yield from proc.barrier()
            if proc.rank == 0:
                for _ in range(20):
                    yield from win.lock(1)
                    win.accumulate(np.int64([1]), 1, 0)
                    yield from win.unlock(1)
            yield from proc.barrier()
            ws = proc.runtime.engines[proc.rank].states[win.group.gid]
            return len(ws.epochs)

        res = rt.run(app)
        assert res[0] <= 1  # nothing lingering

    def test_poke_reentrancy_safe(self):
        """poke() during a sweep does not recurse: what it would sweep
        stays on the worklist for the outer poke loop's next sweep."""
        rt = make_runtime(2)

        def app(proc):
            yield from proc.win_allocate(64)
            yield from proc.barrier()

        rt.run(app)
        engine = rt.engines[0]
        (ws,) = engine.states.values()
        ws.activation_pending = True
        engine._mark_if_due(ws)
        sweeps = engine.sweep_count
        engine._sweeping = True
        engine.poke()  # must not recurse into _sweep
        assert engine.sweep_count == sweeps and ws.gid in engine._dirty
        engine._sweeping = False
        engine.poke()
        assert engine.sweep_count == sweeps + 1
        assert not engine._dirty and not ws.activation_pending

    def test_unroutable_packet_raises(self):
        rt = make_runtime(2)
        with pytest.raises(RuntimeError, match="unroutable"):
            rt.middlewares[0].on_delivery(object(), 1)


def _fill(eng, ws) -> None:
    """A wake-up filled one of ``ws``'s ready sets, and marked it."""
    ws.activation_pending = True
    eng._mark_if_due(ws)


class TestDirtyWorklistMerge:
    """Mid-sweep ``_merge_marked`` regression coverage: gid ordering,
    ``windows_visited`` accounting, and worklist retention."""

    @staticmethod
    def _engine(nwins: int = 3, **kwargs):
        rt = make_runtime(2, **kwargs)

        def app(proc):
            for _ in range(nwins):
                yield from proc.win_allocate(64)
            yield from proc.barrier()

        rt.run(app)
        eng = rt.engines[0]
        assert not eng._dirty  # sweeps drained everything during run()
        return eng

    def test_mid_sweep_mark_merges_in_gid_order(self):
        eng = self._engine()
        ws0, ws1, ws2 = (eng.states[g] for g in sorted(eng.states))
        _fill(eng, ws0)
        _fill(eng, ws2)
        dirty = eng._take_dirty()
        assert [w.gid for w in dirty] == [ws0.gid, ws2.gid]
        v0 = eng.windows_visited
        # A loopback delivery marks the middle window mid-sweep: the
        # merged visit list must come back gid-sorted, not appended.
        _fill(eng, ws1)
        merged = eng._merge_marked(dirty)
        assert [w.gid for w in merged] == [ws0.gid, ws1.gid, ws2.gid]
        # Exactly the extras are accounted, once.
        assert eng.windows_visited == v0 + 1

    def test_mid_sweep_mark_survives_for_next_sweep(self):
        eng = self._engine()
        ws0, _, ws2 = (eng.states[g] for g in sorted(eng.states))
        _fill(eng, ws2)
        dirty = eng._take_dirty()
        _fill(eng, ws0)
        eng._merge_marked(dirty)
        # _merge_marked folds the window into *this* sweep but leaves the
        # worklist intact: the next sweep revisits it (the historical
        # full re-scan semantics).
        assert ws0.gid in eng._dirty
        assert [w.gid for w in eng._take_dirty()] == [ws0.gid]

    def test_remark_of_already_visited_window_adds_nothing(self):
        eng = self._engine()
        ws1 = eng.states[sorted(eng.states)[1]]
        _fill(eng, ws1)
        dirty = eng._take_dirty()
        v0 = eng.windows_visited
        _fill(eng, ws1)  # mid-sweep re-mark of a visited window
        merged = eng._merge_marked(dirty)
        assert merged is dirty  # no extras to fold in
        assert eng.windows_visited == v0
        assert ws1.gid in eng._dirty  # but it is revisited next sweep

    def test_merge_with_clean_worklist_is_identity(self):
        eng = self._engine()
        ws0 = eng.states[sorted(eng.states)[0]]
        _fill(eng, ws0)
        dirty = eng._take_dirty()
        assert eng._merge_marked(dirty) is dirty

    def test_merge_extras_count_into_visit_metrics(self):
        eng = self._engine()
        ws0, ws1, _ = (eng.states[g] for g in sorted(eng.states))
        _fill(eng, ws1)
        dirty = eng._take_dirty()
        base, per_win = eng.windows_visited, ws0.visits
        _fill(eng, ws0)
        eng._merge_marked(dirty)
        assert eng.windows_visited == base + 1
        assert ws0.visits == per_win + 1
