"""A simulation run makes no cyclic garbage.

``Simulator.run`` pauses Python's cyclic collector for the duration of
a run.  That is safe only because a run leaves no reference cycles
behind: anything it made is freed by reference counting the moment it
is dropped.  This module is the guard.  Around every ``Simulator.run``
it collects, sets ``gc.DEBUG_SAVEALL``, runs, and collects again while
the runtime is still referenced, so whatever a full collector pass
would have freed lands in ``gc.garbage`` instead.  That list must stay
empty on every registry cell (observers off and all on), on the
transaction cells of the observer golden that reach retransmission and
credit stalls, and on one explored schedule under the checker.
"""

from __future__ import annotations

import gc
from collections import Counter

import pytest

from repro.explore.policy import specs_for
from repro.explore.runner import run_workload
from repro.simtime import Simulator
from repro.workloads import SERIES, WORKLOADS
from tests.obs.test_observer_golden import _TXN_DRIVES, _TXN_STRESS, _txn


@pytest.fixture
def cyclic_garbage(monkeypatch) -> Counter:
    """Types of the objects each ``Simulator.run`` left as cyclic garbage."""
    found: Counter = Counter()
    run = Simulator.run

    def checked_run(self, *args, **kwargs):
        gc.collect()
        flags = gc.get_debug()
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        kept = len(gc.garbage)
        try:
            return run(self, *args, **kwargs)
        finally:
            gc.collect()
            found.update(type(o).__name__ for o in gc.garbage[kept:])
            del gc.garbage[kept:]
            gc.set_debug(flags)

    monkeypatch.setattr(Simulator, "run", checked_run)
    return found


def _assert_none(found: Counter) -> None:
    assert not found, (
        f"a run left {sum(found.values())} objects in reference cycles: "
        f"{dict(found.most_common())}"
    )


@pytest.mark.parametrize("observers", [False, True], ids=["observers-off", "observers-on"])
@pytest.mark.parametrize("series", SERIES, ids=lambda s: s.name)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_registry_cell_makes_no_cyclic_garbage(cyclic_garbage, workload, series, observers):
    w = WORKLOADS[workload]
    if observers:
        w.instrumented(series.engine, series.nonblocking, True)
    else:
        w.oracle(series.engine, series.nonblocking, None)
    _assert_none(cyclic_garbage)


@pytest.mark.parametrize("stress, kwargs", _TXN_STRESS, ids=[s for s, _ in _TXN_STRESS])
@pytest.mark.parametrize("label, engine, nonblocking", _TXN_DRIVES,
                         ids=[d[0] for d in _TXN_DRIVES])
def test_stressed_transactions_make_no_cyclic_garbage(
    cyclic_garbage, label, engine, nonblocking, stress, kwargs
):
    _txn(engine, nonblocking, **kwargs)()
    _assert_none(cyclic_garbage)


@pytest.mark.parametrize("workload", ["transactions", "lu", "kvservice"])
def test_explored_schedule_makes_no_cyclic_garbage(cyclic_garbage, workload):
    (spec,) = specs_for(1, base_seed=0x5EED)
    for series in SERIES:
        run_workload(workload, series, spec)
    _assert_none(cyclic_garbage)
