"""SimEvent, Timeout, AnyOf semantics."""

import pytest



class TestSimEvent:
    def test_trigger_sets_value_and_time(self, sim):
        ev = sim.event("e")
        sim.schedule(2.0, ev.complete, "payload")
        sim.run()
        assert ev.done
        assert ev.value == "payload"
        assert ev.completed_at == 2.0

    def test_double_trigger_raises(self, sim):
        ev = sim.event()
        ev.complete()
        with pytest.raises(RuntimeError, match="twice"):
            ev.complete()

    def test_callback_after_trigger_still_fires(self, sim):
        ev = sim.event()
        ev.complete(7)
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        sim.run()
        assert seen == [7]

    def test_callbacks_fifo(self, sim):
        ev = sim.event()
        seen = []
        for i in range(5):
            ev.add_callback(lambda e, i=i: seen.append(i))
        sim.schedule(1.0, ev.complete)
        sim.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_no_waiter_no_callback_list(self, sim):
        """The waiter list exists only while something waits."""
        ev = sim.event()
        assert ev._callbacks == ()
        ev.complete()
        assert ev._callbacks == ()
        waited = sim.event()
        waited.add_callback(lambda e: None)
        assert type(waited._callbacks) is list
        waited.complete()
        assert waited._callbacks == ()


class TestTimeout:
    def test_timeout_value(self, sim):
        t = sim.timeout(4.0, value="v")
        sim.run()
        assert t.done and t.value == "v" and t.completed_at == 4.0

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-0.5)

    def test_zero_timeout(self, sim):
        t = sim.timeout(0.0)
        sim.run()
        assert t.completed_at == 0.0


class TestAnyOf:
    def test_first_wins(self, sim):
        evs = [sim.timeout(5.0, value="slow"), sim.timeout(1.0, value="fast")]
        combo = sim.any_of(evs)
        sim.run()
        assert combo.completed_at == 1.0
        assert combo.value == (1, "fast")

    def test_empty_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.any_of([])

    def test_pre_triggered_event(self, sim):
        a = sim.event()
        a.complete("x")
        combo = sim.any_of([sim.timeout(9.0), a])
        sim.run(until=0.5)
        assert combo.done
        assert combo.value == (1, "x")

    def test_only_fires_once(self, sim):
        evs = [sim.timeout(1.0, value=1), sim.timeout(2.0, value=2)]
        combo = sim.any_of(evs)
        sim.run()
        assert combo.value == (0, 1)  # second trigger ignored
