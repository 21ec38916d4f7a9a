"""Property-based tests of the DES kernel invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simtime import Simulator

delays = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=50,
)


@given(delays)
def test_callbacks_observe_nondecreasing_time(ds):
    sim = Simulator()
    seen = []
    for d in ds:
        sim.schedule(d, lambda: seen.append(sim.now))
    sim.run()
    assert seen == sorted(seen)
    assert len(seen) == len(ds)


@given(delays)
def test_equal_runs_are_identical(ds):
    def run_once():
        sim = Simulator()
        seen = []
        for i, d in enumerate(ds):
            sim.schedule(d, lambda i=i: seen.append((sim.now, i)))
        sim.run()
        return seen

    assert run_once() == run_once()


@given(delays)
def test_ties_preserve_schedule_order(ds):
    sim = Simulator()
    seen = []
    # All at the same instant: insertion order must be preserved.
    for i in range(len(ds)):
        sim.schedule(1.0, seen.append, i)
    sim.run()
    assert seen == list(range(len(ds)))


@given(st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), min_size=1, max_size=20))
@settings(max_examples=50)
def test_anyof_triggers_at_min(ds):
    sim = Simulator()
    evs = [sim.timeout(d) for d in ds]
    any_of = sim.any_of(list(evs))
    sim.run()
    assert any_of.completed_at == min(ds)


@given(st.integers(min_value=1, max_value=40))
def test_process_chain_accumulates_time(n):
    sim = Simulator()

    def body():
        for _ in range(n):
            yield sim.timeout(1.5)
        return sim.now

    proc = sim.process(body())
    sim.run()
    assert proc.value == 1.5 * n
