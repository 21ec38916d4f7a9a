"""Request-first API surface guarantees.

Introspection-driven parity between the blocking epoch routines and
their ``i*`` twins, the 1.x spellings removed in 2.0 (``Window.test``,
legacy info keys), the ``wait_epoch``/``iwait`` pairing, and the
dirty-window worklist regression guard (idle windows are never swept).
"""

import inspect

import numpy as np
import pytest

from repro.mpi.info import Info
from repro.rma.checker import SEMANTICS_CHECK_INFO_KEY
from repro.rma.flags import E_A_A_R, ReorderFlags
from repro.rma.engine.registry import ENGINES, engine_factory
from repro.rma.window import MODE_NOSUCCEED, Window
from tests.conftest import make_runtime
from tests.rma.test_ready_sets import _substitute

#: Blocking epoch routine -> its request-first twin.  The blocking call
#: must be exactly "twin + _blocking_wait", so the signatures must match.
BLOCKING_TO_REQUEST_FIRST = {
    "fence": "ifence",
    "start": "istart",
    "complete": "icomplete",
    "post": "ipost",
    "wait_epoch": "iwait",
    "lock": "ilock",
    "unlock": "iunlock",
    "lock_all": "ilock_all",
    "unlock_all": "iunlock_all",
    "flush": "iflush",
    "flush_local": "iflush_local",
    "flush_all": "iflush_all",
    "flush_local_all": "iflush_local_all",
    "notify_wait": "inotify_wait",
}


class TestApiParity:
    @pytest.mark.parametrize(
        "blocking,twin", sorted(BLOCKING_TO_REQUEST_FIRST.items())
    )
    def test_every_blocking_routine_has_matching_twin(self, blocking, twin):
        b = getattr(Window, blocking)
        i = getattr(Window, twin)
        assert callable(b) and callable(i)
        # Parameters (names, order, kinds, defaults) must be identical;
        # only the return convention differs (generator vs request).
        assert inspect.signature(b).parameters == inspect.signature(i).parameters

    def test_every_i_routine_has_a_blocking_counterpart(self):
        expected = set(BLOCKING_TO_REQUEST_FIRST.values())
        actual = {
            name
            for name, member in vars(Window).items()
            if name.startswith("i") and callable(member)
        }
        assert actual == expected


class TestRemovedIn20:
    """The 1.x shims are gone, with no fallback (docs/API.md)."""

    def test_window_has_no_test_alias(self):
        assert not hasattr(Window, "test")
        assert callable(Window.test_epoch)

    def test_old_info_spellings_are_unknown_keys(self):
        info = Info({"repro_semantics_check": "1",
                     "MPI_WIN_EXPOSURE_AFTER_ACCESS_REORDER": "1"})
        assert not info.get_bool(SEMANTICS_CHECK_INFO_KEY)
        assert not info.get_bool(E_A_A_R)
        assert ReorderFlags.from_info(info) == ReorderFlags.from_info(Info())


def _traffic_with_idle_windows(proc, idle_windows=4):
    """Fence traffic on window 0; ``idle_windows`` further windows are
    allocated but never touched.  Returns every window's final bytes."""
    wins = []
    for _ in range(1 + idle_windows):
        win = yield from proc.win_allocate(64)
        wins.append(win)
    win0 = wins[0]
    yield from proc.barrier()
    peer = (proc.rank + 1) % proc.size
    for i in range(3):
        yield from win0.fence()
        win0.put(np.full(8, 1 + proc.rank + 16 * i, dtype=np.uint8), peer, 8 * i)
    yield from win0.fence(MODE_NOSUCCEED)
    yield from proc.barrier()
    return np.concatenate([w.view(np.uint8) for w in wins])


class _EveryWindow:
    """Test-only reference for the worklist: every sweep visits every
    registered window and ``poke()`` never takes its nothing-to-do exit
    — the historical scan the worklist replaced.  Production must be
    indistinguishable from it except in how many windows it visits."""

    def poke(self):
        self._dirty.update(self.states)
        super().poke()

    def _take_dirty(self):
        self._dirty.update(self.states)
        return super()._take_dirty()


EVERY_WINDOW = {
    name: type(f"EveryWindow{cls.__name__}", (_EveryWindow, cls), {})
    for name, cls in zip(ENGINES, map(engine_factory, ENGINES))
}


class TestDirtyWorklist:
    @pytest.mark.parametrize("engine", ["nonblocking", "mvapich"])
    def test_idle_windows_are_never_swept(self, engine):
        rt = make_runtime(2, engine)
        rt.run(_traffic_with_idle_windows)
        assert sum(e.sweep_count for e in rt.engines) > 0

        def visits(gid):
            return sum(e.states[gid].visits for e in rt.engines)

        assert visits(0) > 0
        for gid in range(1, 5):
            assert visits(gid) == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_both_modes_reach_the_same_virtual_time(self, monkeypatch, engine):
        """Skipping clean windows is invisible: same virtual time and
        same final window bytes as the scan of every window, in strictly
        fewer window visits."""
        def observe():
            rt = make_runtime(2, engine)
            results = rt.run(_traffic_with_idle_windows)
            assert any(r.any() for r in results)
            return (rt.now, [r.tobytes() for r in results],
                    sum(e.windows_visited for e in rt.engines))

        now, data, visited = observe()
        with monkeypatch.context() as mp:
            _substitute(mp, EVERY_WINDOW)
            ref_now, ref_data, ref_visited = observe()
        assert now == ref_now
        assert data == ref_data
        assert ref_visited > visited
