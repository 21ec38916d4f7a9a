"""Simulator kernel: scheduling, clock, determinism, deadlock."""

import gc
import weakref

import pytest

from repro.simtime import SimulationDeadlock, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_callback_runs_at_scheduled_time(self, sim):
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_callbacks_run_in_time_order(self, sim):
        seen = []
        sim.schedule(3.0, seen.append, "c")
        sim.schedule(1.0, seen.append, "a")
        sim.schedule(2.0, seen.append, "b")
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_ties_break_in_scheduling_order(self, sim):
        seen = []
        for i in range(10):
            sim.schedule(1.0, seen.append, i)
        sim.run()
        assert seen == list(range(10))

    def test_nested_scheduling(self, sim):
        seen = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [2.0]

    def test_zero_delay_runs_at_current_time(self, sim):
        times = []
        sim.schedule(4.0, lambda: sim.schedule(0.0, lambda: times.append(sim.now)))
        sim.run()
        assert times == [4.0]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError, match="past"):
            sim.schedule(-1.0, lambda: None)

    def test_run_returns_final_time(self, sim):
        sim.schedule(7.5, lambda: None)
        assert sim.run() == 7.5

    def test_run_until_stops_clock(self, sim):
        seen = []
        sim.schedule(10.0, seen.append, "late")
        assert sim.run(until=5.0) == 5.0
        assert seen == []
        assert sim.pending_callbacks == 1
        sim.run()
        assert seen == ["late"]

    def test_args_passed_to_callback(self, sim):
        seen = []
        sim.schedule(1.0, lambda a, b: seen.append((a, b)), 1, "x")
        sim.run()
        assert seen == [(1, "x")]

    def test_run_until_behind_the_clock_rejected(self, sim):
        # Used to move time backwards: the callback below would have
        # fired at 6.0, before ones that already ran at 10.0.
        sim.schedule(10.0, lambda: None)
        sim.run()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(ValueError, match="past"):
            sim.run(until=5.0)
        assert sim.now == 10.0
        assert sim.run(until=10.0) == 10.0  # the clock itself is fine
        assert sim.run() == 11.0


class TestReservedPositions:
    """reserve / claim / passed: a place in the event order without a
    heap entry.  The reference throughout is what ``schedule`` of a
    no-op (or of the claimed callback) would have done."""

    def test_reserve_takes_the_seq_schedule_would(self, sim):
        sim.schedule(1.0, lambda: None)
        pos = sim.reserve(2.0)
        sim.schedule(3.0, lambda: None)
        assert pos == (2.0, 0, 2)
        assert sim.events_scheduled == 3
        assert sim.pending_callbacks == 2

    def test_reserve_needs_a_positive_delay(self, sim):
        for delay in (0.0, -1.0):
            with pytest.raises(ValueError, match="ahead of the clock"):
                sim.reserve(delay)
        assert sim.events_scheduled == 0

    def test_reserve_consults_policy_and_lane(self):
        seen = []

        class Spy:
            def perturb(self, time, seq, lane):
                seen.append((time, seq, lane))
                return 0.25, 7

        sim = Simulator(policy=Spy())
        assert sim.reserve(1.0, lane=("net", 0, 1)) == (1.25, 7, 1)
        assert seen == [(1.0, 1, ("net", 0, 1))]

    def test_claimed_position_runs_in_its_place(self, sim):
        seen = []
        sim.schedule(2.0, seen.append, "a")
        pos = sim.reserve(2.0)
        sim.schedule(2.0, seen.append, "c")
        sim.schedule(1.0, sim.claim, pos, seen.append, "b")
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_claim_inside_the_executing_batch_is_a_sorted_insert(self, sim):
        # Claimed at its own instant, while earlier entries of that
        # instant execute: it must still run before later-scheduled ones
        # and before zero-delay callbacks appended to the batch tail.
        seen = []
        pos = []

        def first():
            seen.append("first")
            sim.schedule(0.0, seen.append, "tail")
            sim.claim(pos[0], seen.append, "claimed")

        sim.schedule(2.0, first)
        pos.append(sim.reserve(2.0))
        sim.schedule(2.0, seen.append, "last")
        sim.run()
        assert seen == ["first", "claimed", "last", "tail"]

    def test_passed_compares_time_then_position(self, sim):
        verdicts = {}
        before = sim.reserve(1.0)
        tie_behind = sim.reserve(2.0)

        def probe():
            for name, pos in (("before", before), ("tie_behind", tie_behind),
                              ("tie_ahead", tie_ahead), ("after", after)):
                verdicts[name] = sim.passed(pos)

        sim.schedule(2.0, probe)
        tie_ahead = sim.reserve(2.0)
        after = sim.reserve(3.0)
        sim.run()
        assert verdicts == {"before": True, "tie_behind": True,
                            "tie_ahead": False, "after": False}
        assert all(sim.passed(p) for p in (before, tie_behind, tie_ahead, after))

    def test_passed_under_a_policy_tracks_the_furthest_entry_of_the_instant(self):
        # Under a policy a callback may schedule a same-time entry whose
        # key sorts *before* positions the instant has already run past.
        # Heap order at t=1: the position (key 3), then ``outer`` (key 5);
        # ``inner`` (key 1) is born while ``outer`` runs, so it runs last
        # although it sorts first — comparing the position with the
        # executing entry alone would call it not passed.
        class Keys:
            def __init__(self):
                self.keys = iter((5, 3, 1))

            def perturb(self, time, seq, lane):
                return 0.0, next(self.keys)

        sim = Simulator(policy=Keys())
        verdicts = []

        def inner():
            verdicts.append(sim.passed(pos))

        def outer():
            verdicts.append(sim.passed(pos))
            sim.schedule(0.0, inner)

        sim.schedule(1.0, outer)
        pos = sim.reserve(1.0)
        sim.run()
        assert verdicts == [True, True]

    def test_claiming_a_position_behind_the_clock_is_an_error(self, sim):
        pos = sim.reserve(1.0)
        sim.schedule(2.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError, match="behind the clock"):
            sim.claim(pos, lambda: None)

    def test_run_ends_at_an_unclaimed_last_position(self, sim):
        # The clock passes over a reserved position: the run ends where
        # it would have ended had the position been a no-op callback.
        sim.schedule(1.0, lambda: None)
        pos = sim.reserve(4.0)
        assert sim.run() == 4.0 == sim.now
        assert sim.passed(pos)
        # ... and time does not run backwards from there.
        fired = []
        sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]

    @pytest.mark.parametrize("until, expect_now, expect_passed", [
        (3.0, 3.0, False),   # stops before the position
        (4.0, 4.0, True),    # at it: a callback there would have run
        (6.0, 4.0, True),    # after it: a drained run ends at the position
    ])
    def test_run_until_around_a_reserved_position(self, sim, until, expect_now, expect_passed):
        sim.schedule(1.0, lambda: None)
        pos = sim.reserve(4.0)
        assert sim.run(until=until) == expect_now == sim.now
        assert sim.passed(pos) is expect_passed

    def test_run_until_with_pending_callbacks_beyond_it(self, sim):
        pos = sim.reserve(4.0)
        sim.schedule(9.0, lambda: None)
        assert sim.run(until=4.0) == 4.0
        assert sim.passed(pos)
        assert sim.run() == 9.0

    def test_deadlock_is_reported_after_the_clock_passed_the_last_position(self, sim):
        def body():
            yield sim.event("never")

        sim.process(body(), name="stuck")
        sim.reserve(2.5)
        with pytest.raises(SimulationDeadlock):
            sim.run()
        assert sim.now == 2.5

    def test_causal_context_is_saved_at_reserve_and_restored_at_fire(self, sim):
        class Recorder:
            current = None

            def __init__(self):
                self._ctx = {}

        rec = sim.causal = Recorder()
        seen = []
        rec.current = "reserving span"
        pos = sim.reserve(2.0)
        rec.current = "claiming span"
        sim.claim(pos, lambda: seen.append(rec.current))
        rec.current = None
        sim.run()
        assert seen == ["reserving span"]


class _Perturb:
    """Deterministic perturbing TieBreakPolicy: bounded extra delay and
    a varying priority key, so the heap exercises the non-batched path
    with genuinely reordered same-time entries."""

    def perturb(self, time, seq, lane):
        return float(seq % 3) * 0.25, -(seq % 2)


class TestHeapEntrySlab:
    """Heap entries (immutable tuples since the slab that recycled them
    was deleted; the class keeps its name for the test ids): a fired
    entry must not pin its callback or args, and no delivery may be
    lost or duplicated on either loop."""

    def test_recycled_entries_release_callback_and_args(self, sim):
        class Payload:
            pass

        payload = Payload()
        ref = weakref.ref(payload)

        def cb(p):
            pass

        cb_ref = weakref.ref(cb)
        sim.schedule(1.0, cb, payload)
        sim.run()
        # The kernel remembers where it stopped, not what it ran.
        assert len(sim._cur) == 3
        del payload, cb
        gc.collect()
        assert ref() is None, "the kernel pinned the callback args"
        assert cb_ref() is None, "the kernel pinned the callback itself"

    def test_recycled_entries_release_refs_in_batched_bursts(self, sim):
        # Same-timestamp batches take the batched delivery path in run();
        # zero-delay schedules from inside a batch append to its tail.
        refs = []

        def spawn():
            obj = type("O", (), {})()
            refs.append(weakref.ref(obj))
            sim.schedule(0.0, lambda o: None, obj)

        for _ in range(5):
            sim.schedule(2.0, spawn)
        sim.run()
        gc.collect()
        assert all(r() is None for r in refs)

    def test_events_scheduled_counts_deliveries_without_policy(self, sim):
        delivered = []

        def chain(depth):
            delivered.append(depth)
            if depth:
                # Zero-delay: joins the executing batch's tail.
                sim.schedule(0.0, chain, depth - 1)
                # Nonzero: takes the heap path.
                sim.schedule(0.5, delivered.append, depth)

        for i in range(10):
            sim.schedule(float(i % 3), chain, 3)
        sim.run()
        assert sim.events_scheduled == len(delivered)

    def test_events_scheduled_counts_deliveries_under_perturbing_policy(self):
        # A perturbing policy disables batching; recycling happens on the
        # single-entry path.  Every scheduled callback must still fire
        # exactly once, in a (perturbed but) deterministic order.
        runs = []
        for _ in range(2):
            sim = Simulator(policy=_Perturb())
            delivered = []

            def chain(depth, sim=sim, delivered=delivered):
                delivered.append(depth)
                if depth:
                    sim.schedule(0.0, chain, depth - 1)
                    sim.schedule(0.5, delivered.append, depth)

            for i in range(10):
                sim.schedule(float(i % 3), chain, 3)
            sim.run()
            assert sim.events_scheduled == len(delivered)
            runs.append(delivered)
        assert runs[0] == runs[1]  # perturbed, not nondeterministic


class TestCollectorPause:
    """``run`` pauses automatic cyclic collection and hands the caller's
    setting back however the run ends."""

    @pytest.fixture(autouse=True)
    def _restore_gc(self):
        enabled = gc.isenabled()
        yield
        if enabled:
            gc.enable()
        else:
            gc.disable()

    @staticmethod
    def _stuck(sim):
        def body():
            yield sim.event("never")

        sim.process(body(), name="stuck")

    def test_paused_inside_the_run_and_enabled_after(self, sim):
        gc.enable()
        seen = []
        sim.schedule(1.0, lambda: seen.append(gc.isenabled()))
        sim.run()
        assert seen == [False]
        assert gc.isenabled()

    def test_disabled_before_stays_disabled(self, sim):
        gc.disable()
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert not gc.isenabled()

    def test_restored_when_a_callback_raises(self, sim):
        gc.enable()

        def boom():
            raise RuntimeError("boom")

        sim.schedule(1.0, boom)
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        assert gc.isenabled()

    def test_restored_when_the_run_deadlocks(self, sim):
        gc.enable()
        self._stuck(sim)
        with pytest.raises(SimulationDeadlock):
            sim.run()
        assert gc.isenabled()

    def test_restored_when_run_until_idle_swallows_a_deadlock(self, sim):
        gc.enable()
        self._stuck(sim)
        sim.run_until_idle()
        assert gc.isenabled()

    def test_an_explicit_collect_inside_the_run_still_collects(self, sim):
        gc.enable()
        refs = []

        def make_cycle_then_collect():
            a, b = type("A", (), {})(), type("B", (), {})()
            a.peer, b.peer = b, a
            refs.append(weakref.ref(a))
            del a, b
            gc.collect()
            refs.append(refs[0]())

        sim.schedule(1.0, make_cycle_then_collect)
        sim.run()
        assert refs[1] is None, "gc.collect() inside a run freed nothing"


class TestProcessesInKernel:
    def test_process_return_value_on_done_event(self, sim):
        def body():
            yield sim.timeout(3.0)
            return 42

        proc = sim.process(body())
        sim.run()
        assert proc.done
        assert proc.value == 42
        assert not proc.alive

    def test_deadlock_detection(self, sim):
        def body():
            yield sim.event("never")

        sim.process(body(), name="stuck")
        with pytest.raises(SimulationDeadlock) as exc:
            sim.run()
        assert "stuck" in str(exc.value)

    def test_run_until_idle_tolerates_block(self, sim):
        def body():
            yield sim.event("never")

        sim.process(body())
        sim.run_until_idle()  # no raise

    def test_live_processes_listing(self, sim):
        def quick():
            yield sim.timeout(1.0)

        def slow():
            yield sim.timeout(10.0)

        sim.process(quick(), name="q")
        p2 = sim.process(slow(), name="s")
        sim.run(until=5.0)
        assert sim.live_processes == [p2]

    def test_many_interleaved_processes_deterministic(self, sim):
        order = []

        def body(i):
            yield sim.timeout(float(i % 3))
            order.append(i)
            yield sim.timeout(1.0)
            order.append(100 + i)

        for i in range(6):
            sim.process(body(i))
        sim.run()
        # Two identical runs must give the same order.
        sim2 = Simulator()
        order2 = []

        def body2(i):
            yield sim2.timeout(float(i % 3))
            order2.append(i)
            yield sim2.timeout(1.0)
            order2.append(100 + i)

        for i in range(6):
            sim2.process(body2(i))
        sim2.run()
        assert order == order2
