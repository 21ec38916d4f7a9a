"""SimProcess lifecycle and error propagation."""

import pytest

from repro.simtime import InvalidYield, ProcessFailed


class TestLifecycle:
    def test_yield_from_nesting(self, sim):
        def inner():
            yield sim.timeout(2.0)
            return "inner-value"

        def outer():
            v = yield from inner()
            yield sim.timeout(1.0)
            return v + "!"

        proc = sim.process(outer())
        sim.run()
        assert proc.value == "inner-value!"
        assert sim.now == 3.0

    def test_yield_receives_event_value(self, sim):
        def body():
            got = yield sim.timeout(1.0, value="hello")
            return got

        proc = sim.process(body())
        sim.run()
        assert proc.value == "hello"

    def test_process_waits_on_another(self, sim):
        def first():
            yield sim.timeout(5.0)
            return 99

        p1 = sim.process(first())

        def second():
            v = yield p1
            return v * 2

        p2 = sim.process(second())
        sim.run()
        assert p2.value == 198

    def test_immediate_return(self, sim):
        def body():
            return 1
            yield  # pragma: no cover

        proc = sim.process(body())
        sim.run()
        assert proc.value == 1

    def test_waiting_on_attribute(self, sim):
        ev = sim.event("gate")

        def body():
            yield ev

        proc = sim.process(body())
        sim.run_until_idle()
        assert proc.waiting_on is ev
        ev.complete()
        sim.run()
        assert proc.waiting_on is None


class TestFailures:
    def test_exception_wrapped_in_process_failed(self, sim):
        def body():
            yield sim.timeout(1.0)
            raise ValueError("boom")

        sim.process(body(), name="bad")
        with pytest.raises(ProcessFailed) as exc:
            sim.run()
        assert isinstance(exc.value.original, ValueError)
        assert "bad" in str(exc.value)

    def test_invalid_yield_detected(self, sim):
        def body():
            yield 42  # not an event

        sim.process(body(), name="wrong")
        with pytest.raises(ProcessFailed) as exc:
            sim.run()
        assert isinstance(exc.value.original, InvalidYield)

    def test_failure_stops_done_trigger(self, sim):
        def body():
            raise RuntimeError("x")
            yield  # pragma: no cover

        proc = sim.process(body())
        with pytest.raises(ProcessFailed):
            sim.run()
        assert not proc.done


class TestProcessIsItsEvent:
    def test_a_process_is_yielded_and_its_result_is_its_value(self, sim):
        def child():
            yield sim.timeout(2.0)
            return "result"

        kid = sim.process(child())

        def parent():
            got = yield kid
            return got, sim.now

        proc = sim.process(parent())
        sim.run()
        assert kid.done and kid.value == "result" and kid.completed_at == 2.0
        assert proc.value == ("result", 2.0)

    def test_a_finished_process_is_combined_with_other_events(self, sim):
        def quick():
            return 7
            yield  # pragma: no cover

        kid = sim.process(quick())
        combo = sim.any_of([sim.timeout(5.0), kid])
        sim.run()
        assert combo.value == (1, 7) and combo.completed_at == 0.0
