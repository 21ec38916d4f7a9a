"""§VI-C consistency between nonblocking epochs that are open at once.

Two origins each open a nonblocking shared-lock epoch on rank 1 and
put while both epochs are active.  The semantics checker
(``group.checker``, report mode) flags the pair only when their byte
ranges overlap.
"""

import numpy as np

from repro.rma import (
    LOCK_SHARED,
    SEMANTICS_CHECK_INFO_KEY,
    SEMANTICS_MODE_INFO_KEY,
    ViolationKind,
)
from tests.conftest import make_runtime


class TestIntegration:
    def _run(self, disjoint: bool):
        info = {SEMANTICS_CHECK_INFO_KEY: 1, SEMANTICS_MODE_INFO_KEY: "report"}

        def app(proc):
            win = yield from proc.win_allocate(64, info=info)
            yield from proc.barrier()
            if proc.rank != 1:
                win.ilock(1, LOCK_SHARED)
                yield from proc.barrier()  # both origins' epochs are open here
                disp = 8 * proc.rank if disjoint else 0
                win.put(np.int64([proc.rank + 1]), 1, disp)
                yield from proc.wait(win.iunlock(1))
            else:
                yield from proc.barrier()
            yield from proc.barrier()
            return win.group.checker.report(), win.view(np.int64)[:3].tolist()

        return make_runtime(3).run(app)[1]

    def test_disjoint_epochs_clean(self):
        report, cells = self._run(disjoint=True)
        assert report == []
        assert cells == [1, 0, 3]

    def test_overlapping_epochs_flagged(self):
        report, _cells = self._run(disjoint=False)
        assert [v.kind for v in report] == [ViolationKind.OVERLAP_RACE]
        assert len(report[0].detail["ops"]) == 2
