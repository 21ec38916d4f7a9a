"""Tracer mechanics."""

import re
from pathlib import Path

import pytest

from repro.patterns.trace import EVENT_KINDS, Tracer


class TestTracer:
    def test_disabled_records_nothing(self, sim):
        t = Tracer(sim, enabled=False)
        t.emit("epoch_open", 0, 0)
        assert len(t) == 0

    def test_enabled_records_with_time(self, sim):
        t = Tracer(sim, enabled=True)
        sim.schedule(5.0, t.emit, "epoch_open", 1, 0)
        sim.run()
        assert len(t) == 1
        ev = t.events[0]
        assert ev.time == 5.0 and ev.rank == 1 and ev.kind == "epoch_open"

    def test_unknown_kind_rejected(self, sim):
        t = Tracer(sim, enabled=True)
        with pytest.raises(ValueError):
            t.emit("bogus_event", 0, 0)

    def test_kind_registry_covers_detector_needs(self):
        for needed in ("block_enter", "block_exit", "grant_recv", "op_delivered"):
            assert needed in EVENT_KINDS

    def test_every_emitted_kind_is_registered(self):
        # Static scan: every string literal passed to _trace()/emit()
        # anywhere in src must be a registered event kind, so a typo at
        # an instrumentation site fails here instead of only at runtime
        # in a traced run.
        src = Path(__file__).resolve().parents[2] / "src"
        pattern = re.compile(r"""(?:_trace|\.emit)\(\s*["'](\w+)["']""")
        emitted = {
            kind
            for path in src.rglob("*.py")
            for kind in pattern.findall(path.read_text(encoding="utf-8"))
        }
        assert emitted, "static scan found no instrumentation sites"
        unknown = emitted - set(EVENT_KINDS)
        assert not unknown, f"emitted kinds missing from EVENT_KINDS: {sorted(unknown)}"
        # ...and the reverse: a registered kind nothing emits is dead.
        unused = set(EVENT_KINDS) - emitted
        assert not unused, f"registered kinds with no emission site: {sorted(unused)}"

    def test_queries(self, sim):
        t = Tracer(sim, enabled=True)
        t.emit("epoch_open", 0, 0, epoch=1)
        t.emit("epoch_open", 1, 0, epoch=2)
        t.emit("epoch_complete", 0, 0, epoch=1)
        assert len(t.of_kind("epoch_open")) == 2
        assert len(t.for_rank(0)) == 2
        assert len(t.for_epoch(0, 1)) == 2
        t.clear()
        assert len(t) == 0

    def test_detail_kwargs_stored(self, sim):
        t = Tracer(sim, enabled=True)
        t.emit("block_enter", 0, 0, call="complete")
        assert t.events[0].detail == {"call": "complete"}


class TestRuntimeIntegration:
    def test_runtime_traces_epochs(self):
        import numpy as np

        from tests.conftest import make_runtime

        rt = make_runtime(2, trace=True)

        def app(proc):
            win = yield from proc.win_allocate(64)
            yield from proc.barrier()
            if proc.rank == 0:
                yield from win.lock(1)
                win.put(np.int64([1]), 1, 0)
                yield from win.unlock(1)
            yield from proc.barrier()

        rt.run(app)
        kinds = {e.kind for e in rt.tracer.events}
        assert "epoch_open" in kinds
        assert "epoch_complete" in kinds
        assert "op_issue" in kinds
        assert "lock_grant" in kinds

    def test_tracing_off_by_default(self):
        from tests.conftest import make_runtime

        rt = make_runtime(2)

        def app(proc):
            _win = yield from proc.win_allocate(64)
            yield from proc.barrier()

        rt.run(app)
        assert len(rt.tracer) == 0

    def test_tracing_off_emits_nothing_under_load(self, engine):
        # A run with epochs, ops, locks and grants must leave the
        # disabled tracer completely empty on both engines.
        import numpy as np

        from repro.rma import MODE_NOSUCCEED
        from tests.conftest import make_runtime

        rt = make_runtime(3, engine, cores_per_node=2)

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

        rt.run(app)
        assert len(rt.tracer) == 0
        assert rt.tracer.events == []
