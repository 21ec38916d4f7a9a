"""§VI-C consistency tracker: hazard detection under reorder flags.
The tracker runs inside the semantics checker (``group.checker``)."""

import numpy as np

from repro import A_A_A_R
from repro.rma.checker import SEMANTICS_CHECK_INFO_KEY, SEMANTICS_MODE_INFO_KEY
from repro.rma.consistency import ConsistencyTracker
from repro.rma.epoch import Epoch, EpochKind
from repro.rma.ops import OpKind, RmaOp
from tests.conftest import make_runtime


def rec(tracker, epoch_uid, concurrent, target=1, start=0, end=8, kind=OpKind.PUT, uid=0):
    ep = Epoch(EpochKind.LOCK, 0, 0, targets=(target,))
    op = RmaOp(kind, 0, target, start, end - start, ep, age=1)
    tracker.record(op, epoch_uid, concurrent)


class TestTrackerUnit:
    def test_no_concurrency_not_recorded(self):
        t = ConsistencyTracker()
        rec(t, 1, [])
        assert t.records == []

    def test_overlap_between_concurrent_epochs_is_hazard(self):
        t = ConsistencyTracker()
        rec(t, 1, [2], start=0, end=8)
        rec(t, 2, [1], start=4, end=12)
        hz = t.hazards()
        assert len(hz) == 1
        assert hz[0].overlap == (4, 8)

    def test_disjoint_ranges_no_hazard(self):
        t = ConsistencyTracker()
        rec(t, 1, [2], start=0, end=8)
        rec(t, 2, [1], start=8, end=16)
        assert t.hazards() == []

    def test_different_targets_no_hazard(self):
        t = ConsistencyTracker()
        rec(t, 1, [2], target=1)
        rec(t, 2, [1], target=2)
        assert t.hazards() == []

    def test_read_read_overlap_no_hazard(self):
        t = ConsistencyTracker()
        rec(t, 1, [2], kind=OpKind.GET)
        rec(t, 2, [1], kind=OpKind.GET)
        assert t.hazards() == []

    def test_read_write_overlap_is_hazard(self):
        t = ConsistencyTracker()
        rec(t, 1, [2], kind=OpKind.GET)
        rec(t, 2, [1], kind=OpKind.PUT)
        assert len(t.hazards()) == 1

    def test_non_concurrent_pair_skipped(self):
        t = ConsistencyTracker()
        rec(t, 1, [3])
        rec(t, 2, [3])
        assert t.hazards() == []

    def test_same_epoch_overlap_not_hazard(self):
        t = ConsistencyTracker()
        rec(t, 1, [2])
        rec(t, 1, [2])
        assert t.hazards() == []

    def test_clear(self):
        t = ConsistencyTracker()
        rec(t, 1, [2])
        t.clear()
        assert t.records == []


class TestIntegration:
    def _run(self, disjoint: bool):
        # Report mode: the hazards are read after the run, whatever
        # else the checker might flag on the way.
        info = {A_A_A_R: 1, SEMANTICS_CHECK_INFO_KEY: 1, SEMANTICS_MODE_INFO_KEY: "report"}
        groups = {}

        def app(proc):
            win = yield from proc.win_allocate(64, info=info)
            groups["g"] = win.group
            yield from proc.barrier()
            if proc.rank == 0:
                reqs = []
                for i in range(2):
                    win.ilock(1)
                    disp = 8 * i if disjoint else 0
                    win.put(np.int64([i]), 1, disp)
                    reqs.append(win.iunlock(1))
                yield from proc.waitall(reqs)
            yield from proc.barrier()

        make_runtime(2).run(app)
        return groups["g"].checker.hazards()

    def test_disjoint_epochs_clean(self):
        assert self._run(disjoint=True) == []

    def test_overlapping_epochs_flagged(self):
        hazards = self._run(disjoint=False)
        assert len(hazards) >= 1
        assert hazards[0].first.target == 1

    def test_tracker_absent_without_info_key(self):
        holder = {}

        def app(proc):
            win = yield from proc.win_allocate(64, info={A_A_A_R: 1})
            holder["group"] = win.group
            yield from proc.barrier()

        make_runtime(2).run(app)
        assert holder["group"].checker is None
