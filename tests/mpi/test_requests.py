"""Request objects and the test/wait families."""

import inspect

import pytest

from repro.mpi.requests import CompletedRequest, Request, waitall, waitany
from repro.mpi.requests import testall as probe_all
from repro.mpi.requests import testany as probe_any


class TestRequest:
    def test_lifecycle(self, sim):
        req = Request(sim, "r")
        assert not req.done and not req.test()
        req.complete("v")
        assert req.done and req.test()
        assert req.value == "v"

    def test_completed_request_immediate(self, sim):
        req = CompletedRequest(sim, value=3)
        assert req.done and req.value == 3

    def test_completed_at_is_stamped_once_in_virtual_time(self, sim):
        req = Request(sim)
        assert req.completed_at is None
        sim.schedule(5.0, req.complete)
        sim.run()
        assert req.completed_at == 5.0
        sim.schedule(3.0, lambda: None)
        sim.run()  # the clock moves on; the stamp does not
        assert sim.now == 8.0 and req.completed_at == 5.0
        assert CompletedRequest(sim).completed_at == 8.0

    def test_wait_resumes_on_completion(self, sim):
        req = Request(sim)
        sim.schedule(5.0, req.complete, "late")

        def body():
            v = yield from req.wait()
            return (v, sim.now)

        proc = sim.process(body())
        sim.run()
        assert proc.value == ("late", 5.0)

    def test_wait_on_done_request_is_instant(self, sim):
        req = CompletedRequest(sim, value="x")

        def body():
            v = yield from req.wait()
            return sim.now, v

        proc = sim.process(body())
        sim.run()
        assert proc.value == (0.0, "x")


class TestRequestIsItsEvent:
    def test_a_process_yields_a_request(self, sim):
        req = Request(sim)
        sim.schedule(4.0, req.complete, "payload")

        def body():
            got = yield req
            return got, sim.now

        proc = sim.process(body())
        sim.run()
        assert proc.value == ("payload", 4.0)

    def test_any_of_combines_requests_and_events(self, sim):
        slow, fast = Request(sim), Request(sim)
        sim.schedule(9.0, slow.complete, "slow")
        sim.schedule(3.0, fast.complete, "fast")

        def body():
            got = yield sim.any_of([slow, sim.timeout(6.0), fast])
            return got, sim.now

        proc = sim.process(body())
        sim.run()
        assert proc.value == ((2, "fast"), 3.0)

    @pytest.mark.parametrize("name", ["done", "value", "completed_at"])
    def test_completion_state_is_a_slot_not_a_property(self, name):
        assert inspect.ismemberdescriptor(inspect.getattr_static(Request, name))

    def test_name_is_formatted_on_demand(self, sim):
        assert Request(sim, ("recv(src=%d)", 3)).name == "recv(src=3)"
        assert CompletedRequest(sim, "plain").name == "plain"


class TestFamilies:
    def test_waitall_order_and_values(self, sim):
        reqs = [Request(sim, f"r{i}") for i in range(3)]
        for i, r in enumerate(reqs):
            sim.schedule(float(3 - i), r.complete, i * 10)

        def body():
            vals = yield from waitall(reqs)
            return vals, sim.now

        proc = sim.process(body())
        sim.run()
        assert proc.value == ([0, 10, 20], 3.0)

    def test_waitall_empty(self, sim):
        def body():
            vals = yield from waitall([])
            return vals

        proc = sim.process(body())
        sim.run()
        assert proc.value == []

    def test_waitany_returns_first(self, sim):
        reqs = [Request(sim), Request(sim)]
        sim.schedule(2.0, reqs[1].complete, "fast")
        sim.schedule(9.0, reqs[0].complete, "slow")

        def body():
            i, v = yield from waitany(reqs)
            return i, v, sim.now

        proc = sim.process(body())
        sim.run()
        assert proc.value[:2] == (1, "fast")
        assert proc.value[2] == 2.0

    def test_waitany_prefers_lowest_done_index(self, sim):
        reqs = [Request(sim), CompletedRequest(sim, value="b"), CompletedRequest(sim, value="c")]

        def body():
            i, v = yield from waitany(reqs)
            return i, v

        proc = sim.process(body())
        sim.run_until_idle()
        assert proc.value == (1, "b")

    def test_waitany_empty_rejected(self, sim):
        with pytest.raises(ValueError):
            list(waitany([]))

    def test_testall_testany(self, sim):
        reqs = [Request(sim), Request(sim)]
        assert not probe_all(reqs)
        assert probe_any(reqs) == (False, None)
        reqs[1].complete()
        assert not probe_all(reqs)
        assert probe_any(reqs) == (True, 1)
        reqs[0].complete()
        assert probe_all(reqs)
        assert probe_any(reqs) == (True, 0)
