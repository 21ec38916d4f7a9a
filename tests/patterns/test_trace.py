"""The causal recorder as the pattern detector's timeline: block spans,
grant instants and the one ``causal=`` switch."""

import numpy as np

from repro.obs.causal import CausalRecorder
from tests.conftest import make_runtime


def _kinds(rt):
    return {s.kind for s in rt.causal.spans}


class TestTracer:
    def test_disabled_records_nothing(self):
        # Off is the absence of a recorder: every layer holds None.
        rt = make_runtime(2)
        assert rt.causal is None and rt.sim.causal is None
        assert rt.fabric.causal is None
        assert all(eng.causal is None for eng in rt.engines)

    def test_enabled_records_with_time(self, sim):
        rec = CausalRecorder(sim)
        sim.schedule(5.0, rec.instant, "grant", 1, 0)
        sim.run()
        (span,) = rec.spans
        assert span.t0 == span.t1 == 5.0 and span.rank == 1 and span.kind == "grant"

    def test_detail_kwargs_stored(self, sim):
        rec = CausalRecorder(sim)
        sid = rec.begin("block", 0, 0, meta={"call": "complete"})
        assert rec.spans[sid].meta == {"call": "complete"}


class TestRuntimeIntegration:
    def test_runtime_traces_epochs(self):
        rt = make_runtime(2, causal=True)

        def app(proc):
            win = yield from proc.win_allocate(64)
            yield from proc.barrier()
            if proc.rank == 0:
                yield from win.lock(1)
                win.put(np.int64([1]), 1, 0)
                yield from win.unlock(1)
            yield from proc.barrier()

        rt.run(app)
        assert {"epoch", "op", "grant", "block"} <= _kinds(rt)
        (block,) = [s for s in rt.causal.spans if s.kind == "block"]
        assert block.rank == 0 and block.meta == {"call": "unlock"}
        # The lock opens at once; the grant lands while unlock drains.
        (grant,) = [s for s in rt.causal.spans if s.kind == "grant"]
        assert grant.rank == 0 and grant.meta == {"granter": 1}
        assert block.t0 < grant.t0 < block.t1

    def test_tracing_off_by_default(self):
        rt = make_runtime(2)

        def app(proc):
            _win = yield from proc.win_allocate(64)
            yield from proc.barrier()

        rt.run(app)
        assert rt.causal is None

    def test_tracing_off_emits_nothing_under_load(self, engine):
        # A run with epochs, ops, locks, grants and blocking calls holds
        # no recorder when off, and arming one moves no virtual time.
        from repro.rma import MODE_NOSUCCEED

        def app(proc):
            win = yield from proc.win_allocate(256)
            yield from proc.barrier()
            yield from win.fence()
            win.put(np.int64([proc.rank]), (proc.rank + 1) % proc.size, 0)
            yield from win.fence(MODE_NOSUCCEED)
            yield from win.lock(0)
            win.put(np.int64([7]), 0, 8 * proc.rank)
            yield from win.unlock(0)
            yield from proc.barrier()

        off, on = (make_runtime(3, engine, cores_per_node=2, causal=c) for c in (False, True))
        off.run(app)
        on.run(app)
        assert off.causal is None
        assert {"block", "grant"} <= _kinds(on)
        assert off.now == on.now
        assert off.stats().messages_sent == on.stats().messages_sent
