"""The RMA semantics checker / race detector.

One minimal *failing program* per violation class: each test runs an
erroneous MPI program that the engines happily execute, and passes only
because the checker (enabled via the ``repro.semantics_check`` info key)
raises a structured :class:`RmaSemanticsError` at the violating event.
Plus: report-mode accumulation, the activation oracle, correct
reordered programs the checker leaves alone, and default-path behaviour
(checker absent).
"""

import numpy as np
import pytest

from repro.explore.context import ExplorationContext
from repro.mpi.info import Info
from repro.rma import (
    LOCK_EXCLUSIVE,
    LOCK_SHARED,
    MODE_NOCHECK,
    SEMANTICS_CHECK_INFO_KEY,
    SEMANTICS_MODE_INFO_KEY,
    RmaChecker,
    RmaSemanticsError,
    ViolationKind,
)
from repro.rma.engine.registry import ENGINES
from repro.rma.epoch import Epoch, EpochKind
from repro.rma.flags import A_A_A_R, E_A_E_R
from repro.rma.locks import LockWaiter
from repro.rma.packets import UnlockPacket
from repro.rma.requests import FlushRequest
from repro.simtime import ProcessFailed
from repro.workloads import SERIES, WORKLOADS
from tests.conftest import make_runtime

CHECK = {SEMANTICS_CHECK_INFO_KEY: 1}
REPORT = {SEMANTICS_CHECK_INFO_KEY: 1, SEMANTICS_MODE_INFO_KEY: "report"}


def unwrap(exc_value):
    """The checker raises either inside an app generator (wrapped in
    ProcessFailed) or inside a delivery callback (raw)."""
    if isinstance(exc_value, ProcessFailed):
        exc_value = exc_value.__cause__
    assert isinstance(exc_value, RmaSemanticsError), f"unexpected: {exc_value!r}"
    return exc_value.violation


def run_expect(nranks, app, kind, engine="nonblocking"):
    rt = make_runtime(nranks, engine)
    with pytest.raises((RmaSemanticsError, ProcessFailed)) as exc:
        rt.run(app)
    v = unwrap(exc.value)
    assert v.kind is kind
    return v


def make_group(nranks=2, info=None):
    """A finished runtime whose windows (and checker) are live for
    direct engine-level manipulation."""
    rt = make_runtime(nranks)
    wins = {}

    def app(proc):
        win = yield from proc.win_allocate(64, info=info)
        wins[proc.rank] = win
        yield from proc.barrier()

    rt.run(app)
    return rt, wins


class TestConstruction:
    def test_absent_without_info_key(self):
        assert RmaChecker.from_info(None) is None
        assert RmaChecker.from_info(Info({})) is None
        assert RmaChecker.from_info(Info({SEMANTICS_CHECK_INFO_KEY: "0"})) is None

    def test_enabled_by_info_key(self):
        c = RmaChecker.from_info(Info({SEMANTICS_CHECK_INFO_KEY: "1"}))
        assert isinstance(c, RmaChecker)
        assert c.mode == "raise"

    def test_report_mode_from_info(self):
        c = RmaChecker.from_info(Info({k: str(v) for k, v in REPORT.items()}))
        assert c.mode == "report"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            RmaChecker(mode="panic")

    def test_default_path_has_no_checker(self):
        _rt, wins = make_group(2, info=None)
        assert wins[0].group.checker is None


class TestOverlapRace:
    """(a) conflicting byte ranges within one exposure interval."""

    def test_shared_lock_holders_racing_puts(self):
        """Two origins hold the shared lock simultaneously and put to
        the same 8 bytes: a textbook MPI-3 §11.7 data race."""

        def app(proc):
            win = yield from proc.win_allocate(16, info=CHECK)
            yield from proc.barrier()
            if proc.rank < 2:
                yield from win.lock(2, LOCK_SHARED)
                yield from proc.barrier()  # both hold the shared lock here
                win.put(np.int64([proc.rank + 1]), 2, 0)
                yield from win.unlock(2)
            else:
                yield from proc.barrier()
            yield from proc.barrier()

        v = run_expect(3, app, ViolationKind.OVERLAP_RACE)
        assert v.win == 0
        assert len(v.detail["ops"]) == 2

    def test_put_get_overlap_is_also_a_race(self):
        def app(proc):
            win = yield from proc.win_allocate(16, info=CHECK)
            yield from proc.barrier()
            if proc.rank < 2:
                yield from win.lock(2, LOCK_SHARED)
                yield from proc.barrier()
                if proc.rank == 0:
                    win.put(np.int64([7]), 2, 0)
                else:
                    buf = np.zeros(1, np.int64)
                    win.get(buf, 2, 0)
                yield from win.unlock(2)
            else:
                yield from proc.barrier()
            yield from proc.barrier()

        run_expect(3, app, ViolationKind.OVERLAP_RACE)

    def test_disjoint_ranges_are_clean(self):
        """Same setup, disjoint bytes: no violation, run completes."""

        def app(proc):
            win = yield from proc.win_allocate(16, info=CHECK)
            yield from proc.barrier()
            if proc.rank < 2:
                yield from win.lock(2, LOCK_SHARED)
                yield from proc.barrier()
                win.put(np.int64([proc.rank + 1]), 2, 8 * proc.rank)
                yield from win.unlock(2)
            else:
                yield from proc.barrier()
            yield from proc.barrier()
            return win.view(np.int64).copy()

        res = make_runtime(3).run(app)
        np.testing.assert_array_equal(res[2], [1, 2])

    def test_same_op_accumulates_are_blessed(self):
        """MPI blesses concurrent same-reduce-op accumulates on
        overlapping ranges: no violation."""

        def app(proc):
            win = yield from proc.win_allocate(8, info=CHECK)
            yield from proc.barrier()
            if proc.rank < 2:
                yield from win.lock(2, LOCK_SHARED)
                yield from proc.barrier()
                win.accumulate(np.int64([proc.rank + 1]), 2, 0)
                yield from win.unlock(2)
            else:
                yield from proc.barrier()
            yield from proc.barrier()
            return win.view(np.int64).copy()

        res = make_runtime(3).run(app)
        assert int(res[2][0]) == 3

    def test_lock_handoff_is_a_quiesce_point(self):
        """Back-to-back exclusive epochs to the same bytes are serialized
        by the FIFO lock handoff — NOT a race, even with A_A_A_R letting
        the second epoch activate early."""

        def app(proc):
            win = yield from proc.win_allocate(8, info={A_A_A_R: 1, **CHECK})
            yield from proc.barrier()
            if proc.rank == 0:
                reqs = []
                for i in range(3):
                    win.ilock(1)
                    win.put(np.int64([i + 1]), 1, 0)
                    reqs.append(win.iunlock(1))
                yield from proc.waitall(reqs)
            yield from proc.barrier()
            return win.view(np.int64).copy()

        res = make_runtime(2).run(app)
        assert int(res[1][0]) == 3


class TestLockHandoffOrder:
    """§VI-C under A_A_A_R: two back-to-back exclusive-lock epochs from
    one origin (nonblocking drive where the engine has one, blocking on
    the baselines).  The lock handoff orders their puts, so overlapping
    puts are no race either: every engine ends with the program-order
    bytes and an empty report."""

    @pytest.mark.parametrize("disjoint", [True, False], ids=["disjoint", "overlap"])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_two_lock_epochs_land_in_program_order(self, engine, disjoint):
        def app(proc):
            win = yield from proc.win_allocate(64, info={A_A_A_R: 1, **REPORT})
            yield from proc.barrier()
            if proc.rank == 0:
                reqs = []
                for i in range(2):
                    disp = 8 * i if disjoint else 0
                    if win.engine.supports_nonblocking:
                        win.ilock(1)
                        win.put(np.int64([i]), 1, disp)
                        reqs.append(win.iunlock(1))
                    else:
                        yield from win.lock(1)
                        win.put(np.int64([i]), 1, disp)
                        yield from win.unlock(1)
                yield from proc.waitall(reqs)
            yield from proc.barrier()
            return win.group.checker, win.view(np.int64)[:2].tolist()

        res = make_runtime(2, engine).run(app)
        checker, target_cells = res[1]
        assert checker.report() == []
        assert target_cells == ([0, 1] if disjoint else [1, 0])


def _final_bytes(runtime):
    return [
        (group.gid, rank, win.view(np.uint8).tobytes())
        for group in runtime.window_groups
        for rank, win in sorted(group.windows.items())
    ]


@pytest.mark.parametrize("series", SERIES, ids=lambda s: s.name)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_checker_is_silent(workload, series):
    """Arming the checker changes nothing a run does: every registry
    workload at its small size, armed in report mode (an exploration
    context with no policy) and unarmed (the causal recorder keeps the
    runtime and is itself silent), ends at the same virtual time after
    the same kernel events with the same window bytes — and the armed
    run reports no violation."""
    wl = WORKLOADS[workload]
    ctx = ExplorationContext()
    wl.run(series.engine, series.nonblocking, exploration=ctx, **wl.small)
    (armed,) = ctx.runtimes
    _, plain = wl.run(series.engine, series.nonblocking, causal=True, **wl.small)
    checkers = [g.checker for g in armed.window_groups]
    assert checkers and None not in checkers
    assert all(g.checker is None for g in plain.window_groups)
    assert armed.now == plain.now
    assert armed.sim.events_scheduled == plain.sim.events_scheduled
    assert _final_bytes(armed) == _final_bytes(plain)
    assert [v for c in checkers for v in c.report()] == []


class TestOmegaViolation:
    """(b) op issued with A_i > g_r that the engine let through."""

    def test_nocheck_start_without_matching_post(self):
        """MODE_NOCHECK on MPI_WIN_START lies: no post ever happens, yet
        the engine short-circuits the grant wait and issues the put."""

        def app(proc):
            win = yield from proc.win_allocate(8, info=CHECK)
            yield from proc.barrier()
            if proc.rank == 0:
                yield from win.start([1], assert_=MODE_NOCHECK)
                win.put(np.int64([1]), 1, 0)
                yield from win.complete()
            yield from proc.barrier()

        v = run_expect(2, app, ViolationKind.OMEGA_VIOLATION)
        assert v.detail["access_id"] > v.detail["g"]
        assert "MODE_NOCHECK" in v.message

    def test_honest_start_is_clean(self):
        def app(proc):
            win = yield from proc.win_allocate(8, info=CHECK)
            yield from proc.barrier()
            if proc.rank == 0:
                yield from win.start([1])
                win.put(np.int64([1]), 1, 0)
                yield from win.complete()
            else:
                yield from win.post([0])
                yield from win.wait_epoch()
            yield from proc.barrier()
            return win.view(np.int64).copy()

        res = make_runtime(2).run(app)
        assert int(res[1][0]) == 1


class TestIllegalReorder:
    """(c) races *introduced* by §VI-B concurrency + the activation oracle."""

    def test_reorder_introduced_race(self):
        """Two GATS epochs to the same bytes: serially the first's put
        completes before the second issues; A_A_A_R + E_A_E_R let them
        progress concurrently, and the checker pins the race on the
        reordering via the epochs' activation provenance."""
        info = {A_A_A_R: 1, E_A_E_R: 1, **CHECK}

        def origin(proc):
            win = yield from proc.win_allocate(8, info=info)
            yield from proc.barrier()
            win.istart([1])
            win.put(np.int64([1]), 1, 0)
            c1 = win.icomplete()
            win.istart([1])
            win.put(np.int64([2]), 1, 0)
            c2 = win.icomplete()
            yield from proc.waitall([c1, c2])
            yield from proc.barrier()

        def target(proc):
            win = yield from proc.win_allocate(8, info=info)
            yield from proc.barrier()
            win.ipost([0])
            w1 = win.iwait()
            win.ipost([0])
            w2 = win.iwait()
            yield from proc.waitall([w1, w2])
            yield from proc.barrier()

        rt = make_runtime(2)
        with pytest.raises((RmaSemanticsError, ProcessFailed)) as exc:
            rt.run_mixed({0: origin, 1: target})
        v = unwrap(exc.value)
        assert v.kind is ViolationKind.ILLEGAL_REORDER
        assert "reorder" in v.message

    def test_activation_oracle_rejects_fence_neighbor(self):
        """on_epoch_activate is an oracle over the engine's own §VI-B
        predicate: activating past a fence epoch is always illegal."""
        _rt, wins = make_group(2, info={A_A_A_R: 1, **CHECK})
        ws = wins[0]._state
        checker = wins[0].group.checker
        prev = Epoch(EpochKind.FENCE, ws.gid, 0, targets=(0, 1), fence_round=1)
        new = Epoch(EpochKind.GATS_ACCESS, ws.gid, 0, targets=(1,))
        with pytest.raises(RmaSemanticsError) as exc:
            checker.on_epoch_activate(ws, new, (prev,))
        assert exc.value.violation.kind is ViolationKind.ILLEGAL_REORDER
        assert "fence" in exc.value.violation.message

    def test_activation_oracle_rejects_lock_all_neighbor(self):
        _rt, wins = make_group(2, info={A_A_A_R: 1, **CHECK})
        ws = wins[0]._state
        checker = wins[0].group.checker
        prev = Epoch(EpochKind.LOCK_ALL, ws.gid, 0, targets=(0, 1))
        new = Epoch(EpochKind.GATS_ACCESS, ws.gid, 0, targets=(1,))
        with pytest.raises(RmaSemanticsError) as exc:
            checker.on_epoch_activate(ws, new, (prev,))
        assert exc.value.violation.kind is ViolationKind.ILLEGAL_REORDER

    def test_activation_oracle_checks_flag_side_pair(self):
        """A_A_A_R only: access-past-access is fine, access-past-exposure
        is not — and every active predecessor is checked."""
        _rt, wins = make_group(2, info={A_A_A_R: 1, **CHECK})
        ws = wins[0]._state
        checker = wins[0].group.checker
        acc1 = Epoch(EpochKind.GATS_ACCESS, ws.gid, 0, targets=(1,))
        acc2 = Epoch(EpochKind.GATS_ACCESS, ws.gid, 0, targets=(1,))
        exp = Epoch(EpochKind.GATS_EXPOSURE, ws.gid, 0, origin_group=(1,))
        checker.on_epoch_activate(ws, acc2, (acc1,))  # allowed: no raise
        with pytest.raises(RmaSemanticsError):
            checker.on_epoch_activate(ws, acc2, (exp,))
        with pytest.raises(RmaSemanticsError):
            # second predecessor's side pair is disallowed
            checker.on_epoch_activate(ws, acc2, (acc1, exp))


class TestLockMisuse:
    """(d) unlock-without-lock, conflicting grants, false NOCHECK."""

    def test_nocheck_lock_against_real_exclusive_holder(self):
        """Rank 1 asserts MODE_NOCHECK while rank 0 genuinely holds the
        exclusive lock at the target: the assertion is false."""

        def app(proc):
            win = yield from proc.win_allocate(8, info=CHECK)
            yield from proc.barrier()
            if proc.rank == 0:
                yield from win.lock(2, LOCK_EXCLUSIVE)
                win.put(np.int64([1]), 2, 0)
                yield from win.flush(2)  # lock definitely granted now
                yield from proc.barrier()
                yield from win.unlock(2)
            elif proc.rank == 1:
                yield from proc.barrier()
                yield from win.lock(2, LOCK_EXCLUSIVE, assert_=MODE_NOCHECK)
                win.put(np.int64([2]), 2, 0)
                yield from win.unlock(2)
            else:
                yield from proc.barrier()
            yield from proc.barrier()

        v = run_expect(3, app, ViolationKind.LOCK_MISUSE)
        assert v.detail["holders"] == {0: True}

    def test_unlock_without_hold(self):
        """A forged/duplicated unlock reaching the host's backlog."""
        _rt, wins = make_group(2, info=CHECK)
        host = wins[1]
        host.engine.on_packet(UnlockPacket(host.group.gid, origin=0, access_id=5), src=0)
        with pytest.raises(RmaSemanticsError) as exc:
            host.engine.poke()
        v = exc.value.violation
        assert v.kind is ViolationKind.LOCK_MISUSE
        assert v.detail["origin"] == 0

    def test_unlock_without_hold_report_mode_still_acks(self):
        """Report mode records the violation, skips the release, and
        still acks so the origin cannot hang."""
        _rt, wins = make_group(2, info=REPORT)
        host = wins[1]
        host.engine.on_packet(UnlockPacket(host.group.gid, origin=0, access_id=5), src=0)
        host.engine.poke()  # no raise
        checker = host.group.checker
        assert len(checker.report(ViolationKind.LOCK_MISUSE)) == 1
        assert not host._state.lock_backlog

    def test_conflicting_exclusive_grant_invariant(self):
        """Simulated engine accounting bug: a grant while an exclusive
        hold coexists with another holder."""
        _rt, wins = make_group(2, info=CHECK)
        ws = wins[1]._state
        checker = wins[1].group.checker
        ws.lock_mgr._holders = {0: True, 1: False}  # corrupted by hand
        with pytest.raises(RmaSemanticsError) as exc:
            checker.on_lock_grant(ws, LockWaiter(origin=1, exclusive=False, access_id=2))
        assert exc.value.violation.kind is ViolationKind.LOCK_MISUSE


class TestFlushMisuse:
    """Flushes outside a live passive-target epoch."""

    def test_flush_on_fence_epoch(self):
        """The facade refuses this combination, so drive the engine the
        way a buggy caller layer would."""

        def app(proc):
            win = yield from proc.win_allocate(8, info=CHECK)
            yield from proc.barrier()
            yield from win.fence()
            if proc.rank == 0:
                win.engine.make_flush(win, win._fence_epoch, None, False)
            yield from win.fence(assert_=2)
            yield from proc.barrier()

        run_expect(2, app, ViolationKind.FLUSH_MISUSE)

    def test_flush_after_epoch_closed(self):
        def app(proc):
            win = yield from proc.win_allocate(8, info=REPORT)
            yield from proc.barrier()
            if proc.rank == 0:
                yield from win.lock(1)
                win.put(np.int64([1]), 1, 0)
                ep = win._locks[1]
                yield from win.unlock(1)
                win.engine.make_flush(win, ep, 1, False)
            yield from proc.barrier()
            return win.group.checker

        res = make_runtime(2).run(app)
        report = res[0].report(ViolationKind.FLUSH_MISUSE)
        assert len(report) == 1
        assert "closed" in report[0].message or "completed" in report[0].message


class TestEpochLeak:
    """(e) leaked middleware state at MPI_WIN_FREE."""

    def test_live_epoch_leak(self):
        def app(proc):
            win = yield from proc.win_allocate(8, info=CHECK)
            yield from proc.barrier()
            if proc.rank == 0:
                win.ilock(1)
                win.put(np.int64([1]), 1, 0)
                # never unlocked: the epoch stays live into win_free
            yield from proc.win_free(win)

        v = run_expect(2, app, ViolationKind.EPOCH_LEAK)
        assert v.detail["epochs"]

    def test_dangling_flush_leak(self):
        """A flush request the engine lost track of (injected directly:
        the normal paths retire them)."""

        def app(proc):
            win = yield from proc.win_allocate(8, info=CHECK)
            yield from proc.barrier()
            if proc.rank == 0:
                ep = Epoch(EpochKind.LOCK, win.group.gid, 0, targets=(1,))
                fr = FlushRequest(proc.runtime.sim, ep, 1, 1, False, counter=1)
                win._state.flushes = [*win._state.flushes, fr]
            yield from proc.win_free(win)

        v = run_expect(2, app, ViolationKind.EPOCH_LEAK)
        assert v.detail["flushes"]

    def test_undrained_fifo_notification_leak(self):
        from repro.network.shmem import NotificationPacket

        def app(proc):
            win = yield from proc.win_allocate(8, info=CHECK)
            yield from proc.barrier()
            if proc.rank == 0:
                win.engine.fifo.push(NotificationPacket(win.group.gid, 3), 1)
            yield from proc.win_free(win)

        v = run_expect(2, app, ViolationKind.EPOCH_LEAK)
        assert any("EPOCH_COMPLETE" in s for s in v.detail["fifo_notifications"])

    def test_clean_free_passes(self):
        def app(proc):
            win = yield from proc.win_allocate(8, info=CHECK)
            yield from proc.barrier()
            if proc.rank == 0:
                yield from win.lock(1)
                win.put(np.int64([9]), 1, 0)
                yield from win.unlock(1)
            yield from proc.barrier()
            yield from proc.win_free(win)

        make_runtime(2).run(app)  # no violation


class TestReportMode:
    def test_race_accumulates_instead_of_raising(self):
        def app(proc):
            win = yield from proc.win_allocate(16, info=REPORT)
            yield from proc.barrier()
            if proc.rank < 2:
                yield from win.lock(2, LOCK_SHARED)
                yield from proc.barrier()
                win.put(np.int64([proc.rank + 1]), 2, 0)
                yield from win.unlock(2)
            else:
                yield from proc.barrier()
            yield from proc.barrier()
            return win.group.checker

        res = make_runtime(3).run(app)
        checker = res[0]
        assert checker is res[1]  # one checker per window group
        races = checker.report(ViolationKind.OVERLAP_RACE)
        assert len(races) == 1
        v = races[0]
        assert v.rank in (0, 1) and v.epoch_uid is not None
        assert "[overlap_race]" in str(v)
        assert checker.report() == races

    def test_violation_detail_is_structured(self):
        v = run_expect(
            2,
            lambda proc: _nocheck_omega_app(proc),
            ViolationKind.OMEGA_VIOLATION,
        )
        assert v.time >= 0.0
        assert isinstance(v.detail, dict)


def _nocheck_omega_app(proc):
    win = yield from proc.win_allocate(8, info=CHECK)
    yield from proc.barrier()
    if proc.rank == 0:
        yield from win.start([1], assert_=MODE_NOCHECK)
        win.put(np.int64([1]), 1, 0)
        yield from win.complete()
    yield from proc.barrier()
