"""Causal span recorder: disabled-by-default, graph shape, and the
virtual-time-invariance guarantee."""

import numpy as np
import pytest

from repro.obs.causal import CATEGORIES, CausalRecorder, ns, span_category
from repro.simtime import Simulator
from repro.workloads import SERIES, WORKLOADS
from tests.conftest import make_runtime

ALL_ENGINES = ("mvapich", "adaptive", "nonblocking", "signal")


def fence_workload(proc):
    win = yield from proc.win_allocate(1024)
    yield from proc.barrier()
    yield from win.fence()
    for _ in range(3):
        win.put(np.ones(16), (proc.rank + 1) % proc.size, 0)
        yield from win.fence()
    yield from proc.barrier()


def lock_workload(proc):
    win = yield from proc.win_allocate(1024)
    yield from proc.barrier()
    for _ in range(2):
        yield from win.lock(0)
        win.accumulate(np.int64([1]), 0, proc.rank * 8)
        yield from win.unlock(0)
    yield from proc.barrier()


class TestDisabled:
    def test_recorder_absent_by_default(self):
        rt = make_runtime(2)
        assert rt.causal is None
        assert rt.sim.causal is None
        assert rt.fabric.causal is None
        assert rt.fabric.flow.causal is None

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_virtual_time_unchanged_by_recording(self, engine):
        times = []
        for causal in (False, True):
            rt = make_runtime(3, engine, cores_per_node=2, causal=causal)
            rt.run(fence_workload)
            times.append(rt.now)
        assert times[0] == times[1]

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_lock_path_virtual_time_unchanged(self, engine):
        times = []
        for causal in (False, True):
            rt = make_runtime(3, engine, causal=causal)
            rt.run(lock_workload)
            times.append(rt.now)
        assert times[0] == times[1]


class TestGraph:
    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_spans_and_epochs_recorded(self, engine):
        rt = make_runtime(3, engine, cores_per_node=2, causal=True)
        rt.run(fence_workload)
        rec = rt.causal
        kinds = {s.kind for s in rec.spans}
        assert {"msg", "epoch", "op"} <= kinds
        # 3 ranks x 3 fence intervals (4 fence calls bound 3 epochs).
        assert len(rec.epochs) == 9
        for er in rec.epochs:
            assert er.activate_us is not None
            assert er.activate_us <= er.complete_us

    def test_message_spans_closed_and_causal(self):
        rt = make_runtime(3, causal=True)
        rt.run(fence_workload)
        for span in rt.causal.message_spans():
            assert span.t1 is not None and span.t1 >= span.t0
            assert "ptype" in span.meta and "dst" in span.meta

    def test_op_spans_carry_epoch_and_end_cause(self):
        rt = make_runtime(3, causal=True)
        rt.run(fence_workload)
        ops = [s for s in rt.causal.spans if s.kind == "op"]
        assert ops
        uids = {er.uid for er in rt.causal.epochs}
        for op in ops:
            assert op.epoch in uids
            assert op.t1 is not None
        # Internode ops end when their payload delivers: the end cause
        # must be a message span.
        spans = rt.causal.spans
        caused = [op for op in ops if op.end_cause is not None]
        assert caused
        assert all(spans[op.end_cause].kind == "msg" for op in caused)

    def test_resolve_epoch_walks_parent_chain(self):
        rt = make_runtime(3, causal=True)
        rt.run(fence_workload)
        rec = rt.causal
        op = next(s for s in rec.spans if s.kind == "op")
        assert rec.resolve_epoch(op) == op.epoch
        # A message sent under an op context resolves to the op's epoch.
        child = next(
            (s for s in rec.spans
             if s.kind == "msg" and s.parent is not None
             and rec.spans[s.parent].kind == "op"),
            None,
        )
        if child is not None:
            assert rec.resolve_epoch(child) == rec.spans[child.parent].epoch

    def test_kernel_context_crosses_schedule(self):
        sim = Simulator()
        rec = CausalRecorder(sim)
        sim.causal = rec
        seen = []

        def fire():
            seen.append(rec.current)

        sid = rec.begin("msg", rank=0)
        rec.current = sid
        sim.schedule(1.0, fire)
        rec.current = None
        sim.schedule(2.0, fire)  # scheduled outside any span
        sim.run()
        assert seen == [sid, None]


@pytest.mark.parametrize("series", SERIES, ids=lambda s: s.name)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_block_and_grant_records_are_leaves(workload, series):
    """Nothing points at a ``block`` span or a ``grant`` instant: neither
    ever becomes the context, so the attribution and the critical path
    walk the same graph with or without them."""
    rec = WORKLOADS[workload].instrumented(series.engine, series.nonblocking, False).causal
    leaves = {s.sid for s in rec.spans if s.kind in ("block", "grant")}
    assert leaves
    for span in rec.spans:
        assert span.parent not in leaves and span.end_cause not in leaves, span


class TestUnits:
    def test_ns_grid_rounds(self):
        assert ns(1.0) == 1000
        assert ns(0.0004) == 0
        assert ns(0.0006) == 1

    def test_categories_shape(self):
        assert CATEGORIES[0] == "retransmit"
        assert CATEGORIES[-1] == "drain"
        assert len(set(CATEGORIES)) == 7

    def test_span_category_mapping(self):
        sim = Simulator()
        rec = CausalRecorder(sim)
        m = rec.begin("msg", rank=0, meta={"ptype": "GrantUpdate"})
        assert span_category(rec.spans[m]) == "control"
        d = rec.begin("msg", rank=0, meta={"ptype": "PutData"})
        assert span_category(rec.spans[d]) == "data"
        o = rec.begin("op", rank=0)
        assert span_category(rec.spans[o]) == "issue"
        f = rec.begin("fc_stall", rank=0)
        assert span_category(rec.spans[f]) == "flow_control"
