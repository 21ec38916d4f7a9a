"""Pattern detection on canonical §III scenarios."""

import numpy as np
import pytest

from repro.patterns import detect_patterns, format_report
from repro.patterns.report import summarize
from repro.rma.engine.registry import ENGINES
from tests.conftest import make_runtime


def total(instances, pattern):
    return sum(i.duration for i in instances if i.pattern == pattern)


def late_post_run(engine: str = "nonblocking"):
    """The target posts 500 µs after the origin's start (blocking drive)."""
    rt = make_runtime(2, engine, causal=True)

    def origin(proc):
        win = yield from proc.win_allocate(64)
        yield from proc.barrier()
        yield from win.start([1])
        win.put(np.int64([1]), 1, 0)
        yield from win.complete()

    def target(proc):
        win = yield from proc.win_allocate(64)
        yield from proc.barrier()
        yield from proc.compute(500.0)
        yield from win.post([0])
        yield from win.wait_epoch()

    rt.run_mixed({0: origin, 1: target})
    return rt


def held_lock_run(engine: str = "nonblocking"):
    """Rank 0 holds rank 2's lock across 600 µs of work; rank 1 asks for
    it 5 µs in (blocking drive)."""
    rt = make_runtime(3, engine, causal=True)

    def target(proc):
        _win = yield from proc.win_allocate(2 << 20)
        yield from proc.barrier()
        yield from proc.barrier()

    def holder(proc):
        win = yield from proc.win_allocate(2 << 20)
        yield from proc.barrier()
        yield from win.lock(2)
        win.put(np.zeros(1 << 20, dtype=np.uint8), 2, 0)
        yield from proc.compute(600.0)
        yield from win.unlock(2)
        yield from proc.barrier()

    def requester(proc):
        win = yield from proc.win_allocate(2 << 20)
        yield from proc.barrier()
        yield from proc.compute(5.0)
        yield from win.lock(2)
        win.put(np.zeros(1 << 20, dtype=np.uint8), 2, 1 << 20)
        yield from win.unlock(2)
        yield from proc.barrier()

    rt.run_mixed({2: target, 0: holder, 1: requester})
    return rt


class TestLatePost:
    def test_detected_on_late_target(self):
        inst = detect_patterns(late_post_run().causal)
        assert total(inst, "late_post") == pytest.approx(500.0, abs=20.0)

    def test_absent_when_post_on_time(self):
        rt = make_runtime(2, causal=True)

        def app(proc):
            win = yield from proc.win_allocate(64)
            yield from proc.barrier()
            if proc.rank == 0:
                yield from win.start([1])
                win.put(np.int64([1]), 1, 0)
                yield from win.complete()
            else:
                yield from win.post([0])
                yield from win.wait_epoch()

        rt.run(app)
        inst = detect_patterns(rt.causal)
        assert total(inst, "late_post") < 10.0


class TestLateComplete:
    def test_detected_on_delayed_close(self):
        rt = make_runtime(2, causal=True)

        def origin(proc):
            win = yield from proc.win_allocate(64)
            yield from proc.barrier()
            yield from win.start([1])
            win.put(np.int64([1]), 1, 0)
            yield from proc.compute(800.0)  # scenario 3 of Fig. 1(a)
            yield from win.complete()

        def target(proc):
            win = yield from proc.win_allocate(64)
            yield from proc.barrier()
            yield from win.post([0])
            yield from win.wait_epoch()

        rt.run_mixed({0: origin, 1: target})
        inst = detect_patterns(rt.causal)
        assert total(inst, "late_complete") == pytest.approx(800.0, rel=0.1)

    def test_eliminated_by_icomplete(self):
        rt = make_runtime(2, causal=True)

        def origin(proc):
            win = yield from proc.win_allocate(64)
            yield from proc.barrier()
            win.istart([1])
            win.put(np.int64([1]), 1, 0)
            req = win.icomplete()
            yield from proc.compute(800.0)
            yield from req.wait()

        def target(proc):
            win = yield from proc.win_allocate(64)
            yield from proc.barrier()
            yield from win.post([0])
            yield from win.wait_epoch()

        rt.run_mixed({0: origin, 1: target})
        inst = detect_patterns(rt.causal)
        assert total(inst, "late_complete") < 20.0


class TestEarlyWait:
    def test_detected_when_transfers_still_flowing(self):
        rt = make_runtime(2, causal=True)

        def origin(proc):
            win = yield from proc.win_allocate(2 << 20)
            yield from proc.barrier()
            yield from win.start([1])
            win.put(np.zeros(1 << 20, dtype=np.uint8), 1, 0)
            yield from win.complete()

        def target(proc):
            win = yield from proc.win_allocate(2 << 20)
            yield from proc.barrier()
            yield from win.post([0])
            yield from win.wait_epoch()  # enters while 1 MB in flight

        rt.run_mixed({0: origin, 1: target})
        inst = detect_patterns(rt.causal)
        assert total(inst, "early_wait") > 250.0


class TestFencePatterns:
    def _run(self, origin_work, target_work):
        rt = make_runtime(2, causal=True)

        def origin(proc):
            win = yield from proc.win_allocate(2 << 20)
            yield from proc.barrier()
            yield from win.fence()
            win.put(np.zeros(1 << 20, dtype=np.uint8), 1, 0)
            yield from proc.compute(origin_work)
            yield from win.fence(assert_=2)

        def target(proc):
            win = yield from proc.win_allocate(2 << 20)
            yield from proc.barrier()
            yield from win.fence()
            yield from proc.compute(target_work)
            yield from win.fence(assert_=2)

        rt.run_mixed({0: origin, 1: target})
        return detect_patterns(rt.causal)

    def test_early_fence_when_closing_during_transfer(self):
        inst = self._run(origin_work=0.0, target_work=0.0)
        assert total(inst, "early_fence") > 250.0

    def test_wait_at_fence_when_peer_late(self):
        inst = self._run(origin_work=700.0, target_work=0.0)
        assert total(inst, "wait_at_fence") > 300.0


class TestLateUnlock:
    def test_detected_on_held_lock(self):
        inst = detect_patterns(held_lock_run().causal)
        assert total(inst, "late_unlock") > 150.0


#: Late Unlock of ``held_lock_run`` per engine.  The lazy baselines take
#: the holder's lock at its unlock, so the requester barely waits.
_HELD_LOCK_LATE_UNLOCK = {"mvapich": 8.65, "adaptive": 8.65,
                          "nonblocking": 238.77, "signal": 238.77}


@pytest.mark.parametrize("engine", ENGINES)
def test_grant_arrivals_seen_on_every_wire_encoding(engine):
    """The counter-signal engine applies grants from ``SignalUpdate``
    writes, not ``GrantUpdate`` packets; its grants land at the same
    instants, so the detector reports the same Late Post and Late Unlock."""
    late_post = detect_patterns(late_post_run(engine).causal)
    assert total(late_post, "late_post") == pytest.approx(502.0, abs=0.01)
    late_unlock = detect_patterns(held_lock_run(engine).causal)
    assert total(late_unlock, "late_unlock") == pytest.approx(
        _HELD_LOCK_LATE_UNLOCK[engine], abs=0.01)


class TestReporting:
    def test_report_renders_all_patterns(self):
        rt = make_runtime(2, causal=True)

        def app(proc):
            _win = yield from proc.win_allocate(64)
            yield from proc.barrier()

        rt.run(app)
        inst = detect_patterns(rt.causal)
        text = format_report(inst, per_rank=True)
        for pattern in ("late_post", "late_unlock", "wait_at_fence"):
            assert pattern in text

    def test_summarize_counts(self):
        from repro.patterns.detect import PatternInstance

        inst = [
            PatternInstance("late_post", 0, 0, 1, 0.0, 5.0),
            PatternInstance("late_post", 1, 0, 2, 0.0, 3.0),
        ]
        agg = summarize(inst)
        assert agg["late_post"]["count"] == 2
        assert agg["late_post"]["total_us"] == 8.0
        assert agg["late_post"]["max_us"] == 5.0
