"""Scenario builders for the §VIII-A microbenchmarks (Figs. 2–11), the
§VIII-A latency / overlap tables and the §VIII-B engine ablations.

Each function runs one scenario for one test series (or one flag
setting, or one engine) on a fresh simulated job and returns the
measurements the paper plots, in virtual-time µs.  All scenarios place
ranks on distinct nodes (``cores_per_node=1``) like the paper's
cross-node measurements unless they say otherwise, inject the same
1000 µs artificial delay, and default to the calibrated network model.
"""

from __future__ import annotations

import numpy as np

from ..mpi.runtime import DEFAULT_ENGINE, MPIRuntime
from ..network.model import NetworkModel
from ..rma.flags import A_A_A_R, A_A_E_R, E_A_A_R, E_A_E_R
from ..workloads import Series
from .calibration import DELAY_US, default_model

__all__ = [
    "SIZES_4B_TO_1MB",
    "fig02_late_post",
    "fig03_late_complete",
    "fig04_early_fence",
    "fig05_wait_at_fence",
    "fig06_late_unlock",
    "fig07_aaar_gats",
    "fig08_aaar_lock",
    "fig09_aaer",
    "fig10_eaer",
    "fig11_eaar",
    "epoch_latency",
    "lock_epochs",
    "eager_issue",
    "issue_during_epoch",
]

MB = 1 << 20

#: The x-axis of Figs. 3 and 5.
SIZES_4B_TO_1MB = (4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576)


def _runtime(
    series_engine: str, nranks: int, model: NetworkModel | None = None, cores_per_node: int = 1
) -> MPIRuntime:
    return MPIRuntime(nranks, cores_per_node=cores_per_node, engine=series_engine,
                      model=model or default_model())


def _buf(nbytes: int) -> np.ndarray:
    return np.zeros(nbytes, dtype=np.uint8)


# ---------------------------------------------------------------------------
# Fig. 2 — Late Post: delay propagation to subsequent non-RMA activity
# ---------------------------------------------------------------------------
def fig02_late_post(
    series: Series, delay_us: float = DELAY_US, nbytes: int = MB
) -> dict[str, float]:
    """Target P0 posts ``delay_us`` late; origin P2 runs one access epoch
    (one put) then a two-sided transfer with P1.  Returns the durations
    of the access epoch (until completion), the two-sided activity, and
    the cumulative latency, all measured at P2 from t=0."""
    rt = _runtime(series.engine, 3)
    out: dict[str, float] = {}
    data = _buf(nbytes)

    def p0(proc):
        win = yield from proc.win_allocate(2 * nbytes)
        yield from proc.compute(delay_us)
        yield from win.post([2])
        yield from win.wait_epoch()

    def p1(proc):
        _win = yield from proc.win_allocate(2 * nbytes)
        yield from proc.recv(2, tag=5)

    def p2(proc):
        win = yield from proc.win_allocate(2 * nbytes)
        t0 = proc.wtime()
        if series.nonblocking:
            win.istart([0])
            win.put(data, 0, 0)
            creq = win.icomplete()
            sreq = proc.isend(1, nbytes, tag=5)
            yield from sreq.wait()
            out["two_sided"] = proc.wtime() - t0
            yield from creq.wait()
            out["access_epoch"] = proc.wtime() - t0
        else:
            yield from win.start([0])
            win.put(data, 0, 0)
            yield from win.complete()
            out["access_epoch"] = proc.wtime() - t0
            t1 = proc.wtime()
            yield from proc.send(1, nbytes, tag=5)
            out["two_sided"] = proc.wtime() - t1
        out["cumulative"] = proc.wtime() - t0

    rt.run_mixed({0: p0, 1: p1, 2: p2})
    return out


# ---------------------------------------------------------------------------
# Fig. 3 — Late Complete: origin-side work delays the closing call
# ---------------------------------------------------------------------------
def fig03_late_complete(
    series: Series, nbytes: int, work_us: float = DELAY_US, model: NetworkModel | None = None
) -> dict[str, float]:
    """Single origin/target; origin puts then overlaps ``work_us`` before
    the completion call.  Returns the target-side epoch length."""
    rt = _runtime(series.engine, 2, model)
    out: dict[str, float] = {}
    data = _buf(nbytes)

    def origin(proc):
        win = yield from proc.win_allocate(2 * nbytes)
        yield from proc.barrier()
        yield from win.start([1])
        win.put(data, 1, 0)
        if series.nonblocking:
            req = win.icomplete()
            yield from proc.compute(work_us)
            yield from req.wait()
        else:
            yield from proc.compute(work_us)
            yield from win.complete()

    def target(proc):
        win = yield from proc.win_allocate(2 * nbytes)
        yield from proc.barrier()
        t0 = proc.wtime()
        yield from win.post([0])
        yield from win.wait_epoch()
        out["target_epoch"] = proc.wtime() - t0

    rt.run_mixed({0: origin, 1: target})
    return out


# ---------------------------------------------------------------------------
# Fig. 4 — Early Fence: idle CPU inside an early epoch-closing fence
# ---------------------------------------------------------------------------
def fig04_early_fence(
    series: Series, nbytes: int, work_us: float = DELAY_US
) -> dict[str, float]:
    """Two ranks share a fence epoch; the origin puts, both close the
    fence immediately; the target then runs ``work_us`` of CPU work.
    Returns the target's cumulative epoch + work latency."""
    rt = _runtime(series.engine, 2)
    out: dict[str, float] = {}
    data = _buf(nbytes)

    def origin(proc):
        win = yield from proc.win_allocate(2 * nbytes)
        yield from win.fence()
        yield from proc.barrier()
        win.put(data, 1, 0)
        if series.nonblocking:
            req = win.ifence(assert_=2)
            yield from req.wait()
        else:
            yield from win.fence(assert_=2)

    def target(proc):
        win = yield from proc.win_allocate(2 * nbytes)
        yield from win.fence()
        yield from proc.barrier()
        t0 = proc.wtime()
        if series.nonblocking:
            req = win.ifence(assert_=2)
            yield from proc.compute(work_us)
            yield from req.wait()
        else:
            yield from win.fence(assert_=2)
            yield from proc.compute(work_us)
        out["cumulative"] = proc.wtime() - t0

    rt.run_mixed({0: origin, 1: target})
    return out


# ---------------------------------------------------------------------------
# Fig. 5 — Wait at Fence: late closing fence propagates to peers
# ---------------------------------------------------------------------------
def fig05_wait_at_fence(
    series: Series, nbytes: int, delay_us: float = DELAY_US
) -> dict[str, float]:
    """Origin works ``delay_us`` before its closing fence; returns the
    target-side epoch length."""
    rt = _runtime(series.engine, 2)
    out: dict[str, float] = {}
    data = _buf(nbytes)

    def origin(proc):
        win = yield from proc.win_allocate(2 * nbytes)
        yield from win.fence()
        yield from proc.barrier()
        win.put(data, 1, 0)
        if series.nonblocking:
            # Nonblocking lets the origin be "selfish" without inflicting
            # Wait at Fence: close immediately, overlap the work with the
            # epoch's completion.
            req = win.ifence(assert_=2)
            yield from proc.compute(delay_us)
            yield from req.wait()
        else:
            yield from proc.compute(delay_us)
            yield from win.fence(assert_=2)

    def target(proc):
        win = yield from proc.win_allocate(2 * nbytes)
        yield from win.fence()
        yield from proc.barrier()
        t0 = proc.wtime()
        if series.nonblocking:
            req = win.ifence(assert_=2)
            yield from req.wait()
        else:
            yield from win.fence(assert_=2)
        out["target_epoch"] = proc.wtime() - t0

    rt.run_mixed({0: origin, 1: target})
    return out


# ---------------------------------------------------------------------------
# Fig. 6 — Late Unlock: delay propagation to a subsequent lock requester
# ---------------------------------------------------------------------------
def fig06_late_unlock(
    series: Series, nbytes: int = MB, work_us: float = DELAY_US
) -> dict[str, float]:
    """O0 locks the target exclusively, puts, works ``work_us``, unlocks;
    O1 (requesting just after O0) locks/puts/unlocks.  Returns both lock
    epochs' durations."""
    rt = _runtime(series.engine, 3)
    out: dict[str, float] = {}
    data = _buf(nbytes)

    def target(proc):
        _win = yield from proc.win_allocate(2 * nbytes)
        yield from proc.barrier()
        yield from proc.barrier()

    def o0(proc):
        win = yield from proc.win_allocate(2 * nbytes)
        yield from proc.barrier()
        t0 = proc.wtime()
        if series.nonblocking:
            win.ilock(2)
            win.put(data, 2, 0)
            req = win.iunlock(2)
            yield from proc.compute(work_us)
            yield from req.wait()
        else:
            yield from win.lock(2)
            win.put(data, 2, 0)
            yield from proc.compute(work_us)
            yield from win.unlock(2)
        out["first_lock"] = proc.wtime() - t0
        yield from proc.barrier()

    def o1(proc):
        win = yield from proc.win_allocate(2 * nbytes)
        yield from proc.barrier()
        yield from proc.compute(5.0)  # request strictly after O0
        t0 = proc.wtime()
        if series.nonblocking:
            win.ilock(2)
            win.put(data, 2, nbytes)
            req = win.iunlock(2)
            yield from req.wait()
        else:
            yield from win.lock(2)
            win.put(data, 2, nbytes)
            yield from win.unlock(2)
        out["second_lock"] = proc.wtime() - t0
        yield from proc.barrier()

    rt.run_mixed({2: target, 0: o0, 1: o1})
    return out


# ---------------------------------------------------------------------------
# Figs. 7–11 — progress-engine optimization flags (nonblocking only)
# ---------------------------------------------------------------------------
def _flag_runtime(nranks: int) -> MPIRuntime:
    return MPIRuntime(nranks, cores_per_node=1, engine=DEFAULT_ENGINE, model=default_model())


def fig07_aaar_gats(
    flag_on: bool, delay_us: float = DELAY_US, nbytes: int = MB
) -> dict[str, float]:
    """Origin opens access epochs to T0 (posting late) then T1; with
    A_A_A_R the second epoch progresses out of order."""
    info = {A_A_A_R: 1} if flag_on else None
    rt = _flag_runtime(3)
    out: dict[str, float] = {}
    data = _buf(nbytes)

    def t0(proc):
        win = yield from proc.win_allocate(2 * nbytes, info=info)
        yield from proc.compute(delay_us)
        yield from win.post([0])
        yield from win.wait_epoch()

    def t1(proc):
        win = yield from proc.win_allocate(2 * nbytes, info=info)
        t = proc.wtime()
        yield from win.post([0])
        yield from win.wait_epoch()
        out["target_T1"] = proc.wtime() - t

    def origin(proc):
        win = yield from proc.win_allocate(2 * nbytes, info=info)
        t = proc.wtime()
        win.istart([1])
        win.put(data, 1, 0)
        r0 = win.icomplete()
        win.istart([2])
        win.put(data, 2, 0)
        r1 = win.icomplete()
        yield from proc.waitall([r0, r1])
        out["origin_cumulative"] = proc.wtime() - t

    rt.run_mixed({1: t0, 2: t1, 0: origin})
    return out


def fig08_aaar_lock(
    flag_on: bool, delay_us: float = DELAY_US, nbytes: int = MB
) -> dict[str, float]:
    """O0 holds T0's lock while working; O1's two back-to-back lock
    epochs (T0 then T1) complete out of order under A_A_A_R."""
    info = {A_A_A_R: 1} if flag_on else None
    rt = _flag_runtime(4)
    out: dict[str, float] = {}
    data = _buf(nbytes)

    def tgt(proc):
        _win = yield from proc.win_allocate(2 * nbytes, info=info)
        yield from proc.barrier()
        yield from proc.barrier()

    def o0(proc):
        win = yield from proc.win_allocate(2 * nbytes, info=info)
        yield from proc.barrier()
        yield from win.lock(2)
        win.put(data, 2, 0)
        yield from proc.compute(delay_us)
        yield from win.unlock(2)
        yield from proc.barrier()

    def o1(proc):
        win = yield from proc.win_allocate(2 * nbytes, info=info)
        yield from proc.barrier()
        yield from proc.compute(5.0)
        t0 = proc.wtime()
        win.ilock(2)
        win.put(data, 2, nbytes)
        ra = win.iunlock(2)
        win.ilock(3)
        win.put(data, 3, 0)
        rb = win.iunlock(3)
        yield from proc.waitall([ra, rb])
        out["o1_cumulative"] = proc.wtime() - t0
        yield from proc.barrier()

    rt.run_mixed({2: tgt, 3: tgt, 0: o0, 1: o1})
    return out


def fig09_aaer(
    flag_on: bool, delay_us: float = DELAY_US, nbytes: int = MB
) -> dict[str, float]:
    """P0 (origin, late) → P2 (target, then origin) → P1 (target):
    A_A_E_R lets P2's access epoch progress past its active exposure."""
    info = {A_A_E_R: 1} if flag_on else None
    rt = _flag_runtime(3)
    out: dict[str, float] = {}
    data = _buf(nbytes)

    def p0(proc):  # late origin
        win = yield from proc.win_allocate(2 * nbytes, info=info)
        yield from proc.compute(delay_us)
        yield from win.start([2])
        win.put(data, 2, 0)
        yield from win.complete()

    def p1(proc):  # final target
        win = yield from proc.win_allocate(2 * nbytes, info=info)
        t0 = proc.wtime()
        yield from win.post([2])
        yield from win.wait_epoch()
        out["target_P1"] = proc.wtime() - t0

    def p2(proc):  # target for P0, then origin for P1
        win = yield from proc.win_allocate(2 * nbytes, info=info)
        t0 = proc.wtime()
        win.ipost([0])
        rexp = win.iwait()
        win.istart([1])
        win.put(data, 1, 0)
        racc = win.icomplete()
        yield from proc.waitall([rexp, racc])
        out["p2_cumulative"] = proc.wtime() - t0

    rt.run_mixed({0: p0, 1: p1, 2: p2})
    return out


def fig10_eaer(
    flag_on: bool, delay_us: float = DELAY_US, nbytes: int = MB
) -> dict[str, float]:
    """Two origins, one target with two exposures (O0's first, O0 late):
    E_A_E_R lets the second exposure activate while the first is live."""
    info = {E_A_E_R: 1} if flag_on else None
    rt = _flag_runtime(3)
    out: dict[str, float] = {}
    data = _buf(nbytes)

    def o0(proc):  # late origin
        win = yield from proc.win_allocate(2 * nbytes, info=info)
        yield from proc.compute(delay_us)
        yield from win.start([2])
        win.put(data, 2, 0)
        yield from win.complete()

    def o1(proc):
        win = yield from proc.win_allocate(2 * nbytes, info=info)
        t0 = proc.wtime()
        yield from win.start([2])
        win.put(data, 2, nbytes)
        yield from win.complete()
        out["origin_O1"] = proc.wtime() - t0

    def target(proc):
        win = yield from proc.win_allocate(2 * nbytes, info=info)
        t0 = proc.wtime()
        win.ipost([0])
        r0 = win.iwait()
        win.ipost([1])
        r1 = win.iwait()
        yield from proc.waitall([r0, r1])
        out["target_cumulative"] = proc.wtime() - t0

    rt.run_mixed({0: o0, 1: o1, 2: target})
    return out


def fig11_eaar(
    flag_on: bool, delay_us: float = DELAY_US, nbytes: int = MB
) -> dict[str, float]:
    """P0 (target, posting late), P1 (origin), P2 (origin for P0, then
    target for P1): E_A_A_R lets P2's exposure activate while its access
    epoch is still waiting on P0."""
    info = {E_A_A_R: 1} if flag_on else None
    rt = _flag_runtime(3)
    out: dict[str, float] = {}
    data = _buf(nbytes)

    def p0(proc):  # late target
        win = yield from proc.win_allocate(2 * nbytes, info=info)
        yield from proc.compute(delay_us)
        yield from win.post([2])
        yield from win.wait_epoch()

    def p1(proc):  # origin toward P2
        win = yield from proc.win_allocate(2 * nbytes, info=info)
        t0 = proc.wtime()
        yield from win.start([2])
        win.put(data, 2, 0)
        yield from win.complete()
        out["origin_P1"] = proc.wtime() - t0

    def p2(proc):  # origin for P0 first, then target for P1
        win = yield from proc.win_allocate(2 * nbytes, info=info)
        t0 = proc.wtime()
        win.istart([0])
        win.put(data, 0, 0)
        racc = win.icomplete()
        win.ipost([1])
        rexp = win.iwait()
        yield from proc.waitall([racc, rexp])
        out["p2_cumulative"] = proc.wtime() - t0

    rt.run_mixed({0: p0, 1: p1, 2: p2})
    return out


# ---------------------------------------------------------------------------
# §VIII-A prose — pure epoch latency, lock-epoch overlap
# ---------------------------------------------------------------------------
def _window_host(proc):
    """A rank that only hosts its window while the others measure."""
    _win = yield from proc.win_allocate(2 * MB)
    yield from proc.barrier()
    yield from proc.barrier()


def epoch_latency(series: Series, style: str) -> float:
    """Pure latency of one ``style`` (lock / gats / fence) epoch hosting
    a 1 MB put, driven by blocking calls."""
    rt = _runtime(series.engine, 2)
    out: dict[str, float] = {}
    data = _buf(MB)

    def origin(proc):
        win = yield from proc.win_allocate(2 * MB)
        yield from proc.barrier()
        t0 = proc.wtime()
        if style == "lock":
            yield from win.lock(1)
            win.put(data, 1, 0)
            yield from win.unlock(1)
        elif style == "gats":
            yield from win.start([1])
            win.put(data, 1, 0)
            yield from win.complete()
        else:
            yield from win.fence()
            win.put(data, 1, 0)
            yield from win.fence(assert_=2)
        out["latency"] = proc.wtime() - t0
        yield from proc.barrier()

    def target(proc):
        win = yield from proc.win_allocate(2 * MB)
        yield from proc.barrier()
        if style == "gats":
            yield from win.post([0])
            yield from win.wait_epoch()
        elif style == "fence":
            yield from win.fence()
            yield from win.fence(assert_=2)
        yield from proc.barrier()

    rt.run_mixed({0: origin, 1: target})
    return out["latency"]


def lock_epochs(
    engine: str,
    nonblocking: bool,
    work_us: float,
    repeats: int = 1,
    accumulate: bool = False,
    model: NetworkModel | None = None,
) -> list[float]:
    """The origin repeats a lock epoch holding one 1 MB op (a put, or an
    accumulate) and ``work_us`` of compute, back to back.  Returns the
    virtual timestamps of the epoch boundaries — the first lock call,
    then each epoch's end — so callers take per-epoch durations or the
    whole span.  Full overlap makes an epoch ~max(work, transfer); none
    makes it their sum."""
    rt = _runtime(engine, 2, model)
    marks: list[float] = []
    data = np.zeros(MB // 8, dtype=np.float64) if accumulate else _buf(MB)

    def origin(proc):
        win = yield from proc.win_allocate(2 * MB)
        issue = win.accumulate if accumulate else win.put
        yield from proc.barrier()
        marks.append(proc.wtime())
        for _ in range(repeats):
            if nonblocking:
                win.ilock(1)
                issue(data, 1, 0)
                req = win.iunlock(1)
                yield from proc.compute(work_us)
                yield from req.wait()
            else:
                yield from win.lock(1)
                issue(data, 1, 0)
                yield from proc.compute(work_us)
                yield from win.unlock(1)
            marks.append(proc.wtime())
        yield from proc.barrier()

    rt.run_mixed({0: origin, 1: _window_host})
    return marks


# ---------------------------------------------------------------------------
# §VIII-B ablations — the two "New > MVAPICH" engine optimizations
# ---------------------------------------------------------------------------
def _gats_target(delay_us: float = 0.0):
    def target(proc):
        win = yield from proc.win_allocate(2 * MB)
        yield from proc.barrier()
        yield from proc.compute(delay_us)
        yield from win.post([0])
        yield from win.wait_epoch()
        yield from proc.barrier()

    return target


def _two_target_epoch(rt: MPIRuntime, work_us: float, roles: dict) -> float:
    """Rank 0 opens one access epoch toward ranks 1 and 2, puts 1 MB to
    each, works ``work_us`` and completes; returns the epoch length."""
    out: dict[str, float] = {}
    data = _buf(MB)

    def origin(proc):
        win = yield from proc.win_allocate(2 * MB)
        yield from proc.barrier()
        t0 = proc.wtime()
        yield from win.start([1, 2])
        win.put(data, 1, 0)
        win.put(data, 2, 0)
        yield from proc.compute(work_us)
        yield from win.complete()
        out["epoch"] = proc.wtime() - t0
        yield from proc.barrier()

    rt.run_mixed({0: origin, **roles})
    return out["epoch"]


def eager_issue(engine: str) -> float:
    """One origin, two targets; T2 posts 500 µs late.  Eager per-target
    issue lets T1's transfer flow immediately; all-ready gating delays
    both."""
    return _two_target_epoch(_runtime(engine, 3), 0.0,
                             {1: _gats_target(), 2: _gats_target(500.0)})


def issue_during_epoch(engine: str) -> float:
    """One origin with an intranode target (rank 1 shares its node) and
    an internode one, and 200 µs of work inside the epoch.  Both engines
    overlap the two paths; the work hides transfer time only when the
    transfers are issued *during* the epoch, not at its closing call."""
    return _two_target_epoch(_runtime(engine, 4, cores_per_node=2), 200.0,
                             {1: _gats_target(), 2: _gats_target(), 3: _window_host})
