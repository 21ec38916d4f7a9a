"""§VI-B progress-engine optimization flags: semantics and exclusions."""

import numpy as np
import pytest

from repro import A_A_A_R, A_A_E_R, E_A_A_R, E_A_E_R
from repro.bench.figures import (
    fig07_aaar_gats,
    fig08_aaar_lock,
    fig09_aaer,
    fig10_eaer,
    fig11_eaar,
)
from repro.rma.flags import ReorderFlags
from tests.conftest import make_runtime

DELAY = 1000.0
TRANSFER = 345.0  # ~1 MB put incl. handshakes


class TestFlagDecoding:
    def test_defaults_off(self):
        assert ReorderFlags.from_info(None) == ReorderFlags()

    def test_each_key_decodes(self):
        from repro.mpi.info import Info

        for key, attr in [
            (A_A_A_R, "access_after_access"),
            (A_A_E_R, "access_after_exposure"),
            (E_A_E_R, "exposure_after_exposure"),
            (E_A_A_R, "exposure_after_access"),
        ]:
            f = ReorderFlags.from_info(Info({key: "1"}))
            assert getattr(f, attr) is True

    def test_allows_matrix(self):
        f = ReorderFlags(access_after_access=True)
        assert f.allows(True, True)
        assert not f.allows(True, False)
        assert not f.allows(False, True)
        assert not f.allows(False, False)

    @pytest.mark.parametrize(
        "attr, pair",
        [
            ("access_after_access", (True, True)),
            ("access_after_exposure", (True, False)),
            ("exposure_after_exposure", (False, False)),
            ("exposure_after_access", (False, True)),
        ],
    )
    def test_each_flag_gates_exactly_one_side_pair(self, attr, pair):
        """Full 4x4 matrix: a single flag opens its own pair and no
        other; no flags means no pair is allowed."""
        f = ReorderFlags(**{attr: True})
        for new_is_access in (True, False):
            for active_is_access in (True, False):
                expected = (new_is_access, active_is_access) == pair
                assert f.allows(new_is_access, active_is_access) is expected
        assert not ReorderFlags().allows(*pair)


class TestFlagBehaviour:
    """Each flag confines a late peer's delay (the Figs. 7-11 shapes)."""

    def test_aaar_gats_shape(self):
        off = fig07_aaar_gats(False)
        on = fig07_aaar_gats(True)
        assert off["target_T1"] > DELAY  # delay propagated transitively
        assert on["target_T1"] < 1.5 * TRANSFER  # confined
        assert on["origin_cumulative"] < off["origin_cumulative"]

    def test_aaar_lock_shape(self):
        off = fig08_aaar_lock(False)
        on = fig08_aaar_lock(True)
        assert on["o1_cumulative"] < off["o1_cumulative"] - 200.0

    def test_aaer_shape(self):
        off = fig09_aaer(False)
        on = fig09_aaer(True)
        assert off["target_P1"] > DELAY
        assert on["target_P1"] < 1.5 * TRANSFER

    def test_eaer_shape(self):
        off = fig10_eaer(False)
        on = fig10_eaer(True)
        assert off["origin_O1"] > DELAY
        assert on["origin_O1"] < 1.5 * TRANSFER

    def test_eaar_shape(self):
        off = fig11_eaar(False)
        on = fig11_eaar(True)
        assert off["origin_P1"] > DELAY
        assert on["origin_P1"] < 1.5 * TRANSFER

    def test_out_of_order_completion_preserves_data(self):
        """With A_A_A_R, epochs complete out of order but every byte
        still lands where it was aimed (disjoint regions)."""

        def app(proc):
            win = yield from proc.win_allocate(256, info={A_A_A_R: 1})
            yield from proc.barrier()
            if proc.rank == 0:
                reqs = []
                for i in range(4):
                    win.ilock(1)
                    win.put(np.int64([i + 1]), 1, 8 * i)
                    reqs.append(win.iunlock(1))
                yield from proc.waitall(reqs)
            yield from proc.barrier()
            return win.view(np.int64, 0, 4).copy()

        res = make_runtime(2).run(app)
        np.testing.assert_array_equal(res[1], [1, 2, 3, 4])


class TestActivationPredicate:
    """Unit coverage of ``_reorder_allows`` and the §VII-A scan-stop
    rule of ``_try_activate``, driven on live engine state."""

    @staticmethod
    def _fresh_state(info):
        from tests.rma.test_checker import make_group

        _rt, wins = make_group(2, info=info)
        return wins[0]._state, wins[0].engine

    def test_reorder_allows_excludes_fence_and_lock_all(self):
        from repro.rma.epoch import Epoch, EpochKind

        all_on = {A_A_A_R: 1, A_A_E_R: 1, E_A_E_R: 1, E_A_A_R: 1}
        ws, eng = self._fresh_state(all_on)
        acc = Epoch(EpochKind.GATS_ACCESS, ws.gid, 0, targets=(1,))
        fence = Epoch(EpochKind.FENCE, ws.gid, 0, targets=(0, 1), fence_round=1)
        lock_all = Epoch(EpochKind.LOCK_ALL, ws.gid, 0, targets=(0, 1))
        lock = Epoch(EpochKind.LOCK, ws.gid, 0, targets=(1,))
        # Every flag on: ordinary side pairs allowed...
        assert eng._reorder_allows(ws, acc, lock)
        assert eng._reorder_allows(ws, lock, acc)
        # ...but never next to a fence or lock_all epoch, either side.
        assert not eng._reorder_allows(ws, acc, fence)
        assert not eng._reorder_allows(ws, fence, acc)
        assert not eng._reorder_allows(ws, acc, lock_all)
        assert not eng._reorder_allows(ws, lock_all, acc)

    def test_reorder_allows_consults_flag_side_pair(self):
        from repro.rma.epoch import Epoch, EpochKind

        ws, eng = self._fresh_state({A_A_A_R: 1})
        acc = Epoch(EpochKind.GATS_ACCESS, ws.gid, 0, targets=(1,))
        acc2 = Epoch(EpochKind.GATS_ACCESS, ws.gid, 0, targets=(1,))
        exp = Epoch(EpochKind.GATS_EXPOSURE, ws.gid, 0, origin_group=(1,))
        assert eng._reorder_allows(ws, acc2, acc)
        assert not eng._reorder_allows(ws, acc2, exp)  # A_A_E_R off
        assert not eng._reorder_allows(ws, exp, acc)  # E_A_A_R off

    def test_try_activate_scan_stops_at_first_failure(self):
        """§VII-A: "the scan stops when the first deferred epoch is
        encountered that fails activation conditions" — epochs behind
        the stopper stay deferred even if their own pair is allowed."""
        from repro.rma.epoch import Epoch, EpochKind

        ws, eng = self._fresh_state({A_A_A_R: 1})
        acc1 = Epoch(EpochKind.GATS_ACCESS, ws.gid, 0, targets=(1,))
        exp = Epoch(EpochKind.GATS_EXPOSURE, ws.gid, 0, origin_group=(1,))
        acc2 = Epoch(EpochKind.GATS_ACCESS, ws.gid, 0, targets=(1,))
        ws.epochs.extend([acc1, exp, acc2])
        eng._try_activate(ws)
        assert acc1.active  # head of the list always activates
        assert exp.deferred  # E_A_A_R off: fails, scan stops here
        assert acc2.deferred  # would pass A_A_A_R, but never scanned

    def test_try_activate_checks_all_active_predecessors(self):
        """An epoch activates past *several* still-active predecessors
        only when the flag pair holds against every one of them."""
        from repro.rma.epoch import Epoch, EpochKind

        ws, eng = self._fresh_state({A_A_A_R: 1})
        acc1 = Epoch(EpochKind.GATS_ACCESS, ws.gid, 0, targets=(1,))
        exp = Epoch(EpochKind.GATS_EXPOSURE, ws.gid, 0, origin_group=(1,))
        acc2 = Epoch(EpochKind.GATS_ACCESS, ws.gid, 0, targets=(1,))
        # Force the exposure active as E_A_A_R would have, then ask the
        # scan about acc2: allowed past acc1, not past exp.
        ws.epochs.extend([acc1, exp, acc2])
        acc1.active = True
        exp.active = True
        eng._try_activate(ws)
        assert acc2.deferred

    def test_activation_records_provenance(self):
        """The checker records the uids of the epochs an activation jumped over."""
        from repro.rma.checker import SEMANTICS_CHECK_INFO_KEY
        from repro.rma.epoch import Epoch, EpochKind

        ws, eng = self._fresh_state({A_A_A_R: 1, SEMANTICS_CHECK_INFO_KEY: 1})
        acc1 = Epoch(EpochKind.GATS_ACCESS, ws.gid, 0, targets=(1,))
        acc2 = Epoch(EpochKind.GATS_ACCESS, ws.gid, 0, targets=(1,))
        ws.epochs.extend([acc1, acc2])
        acc1.active = True
        eng._try_activate(ws)
        assert acc2.active and ws.checker._jumped == {(acc2.uid, acc1.uid)}


class TestFlagExclusions:
    """§VI-B: flags never apply next to fence or lock_all epochs."""

    def test_fence_epochs_not_reordered(self):
        """A fence epoch opened behind a stuck access epoch must stay
        deferred even with every flag on (its round cannot be closed
        until the access epoch completes)."""
        info = {A_A_A_R: 1, A_A_E_R: 1, E_A_E_R: 1, E_A_A_R: 1}
        times = {}

        def origin(proc):
            win = yield from proc.win_allocate(64, info=info)
            yield from proc.barrier()
            win.istart([1])  # rank 1 posts very late: epoch stuck
            win.put(np.int64([1]), 1, 0)
            r = win.icomplete()
            yield from win.fence()  # opens a fence epoch (deferred)
            freq = win.ifence(assert_=2)  # closes it: must wait
            yield from freq.wait()
            times["fence_done"] = proc.wtime()
            yield from r.wait()
            yield from proc.barrier()

        def late(proc):
            win = yield from proc.win_allocate(64, info=info)
            yield from proc.barrier()
            yield from proc.compute(500.0)
            yield from win.post([0])
            yield from win.wait_epoch()
            yield from win.fence()
            yield from win.fence(assert_=2)
            yield from proc.barrier()

        make_runtime(2).run_mixed({0: origin, 1: late})
        assert times["fence_done"] >= 500.0

    def test_lock_all_not_reordered_past_access(self):
        """lock_all after a stuck lock epoch stays deferred despite
        A_A_A_R."""
        times = {}

        def holder(proc):
            win = yield from proc.win_allocate(64, info={A_A_A_R: 1})
            yield from proc.barrier()
            yield from win.lock(2)
            yield from proc.compute(400.0)
            yield from win.unlock(2)
            yield from proc.barrier()

        def origin(proc):
            win = yield from proc.win_allocate(64, info={A_A_A_R: 1})
            yield from proc.barrier()
            yield from proc.compute(5.0)
            win.ilock(2)  # queued behind the holder
            win.put(np.int64([1]), 2, 0)
            r1 = win.iunlock(2)
            win.ilock_all()  # §VI-B: may not progress out of order
            win.put(np.int64([2]), 0, 0)
            r2 = win.iunlock_all()
            yield from proc.waitall([r1, r2])
            times["all_done"] = proc.wtime()
            yield from proc.barrier()

        def target(proc):
            _win = yield from proc.win_allocate(64, info={A_A_A_R: 1})
            yield from proc.barrier()
            yield from proc.barrier()

        make_runtime(3).run_mixed({0: holder, 1: origin, 2: target})
        assert times["all_done"] >= 400.0
