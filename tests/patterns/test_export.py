"""Chrome trace-viewer export of the span graph, with the pattern overlay."""

import json

import numpy as np

from repro.obs import export_chrome_trace, validate_chrome_trace, write_chrome_trace_file
from repro.patterns import detect_patterns
from tests.conftest import make_runtime


def timeline(rt, patterns=None):
    """The rank-track events of the exported document."""
    return [e for e in export_chrome_trace(rt, patterns)["traceEvents"] if e["ph"] != "M"]


def traced_run():
    rt = make_runtime(2, causal=True)

    def app(proc):
        win = yield from proc.win_allocate(64)
        yield from proc.barrier()
        if proc.rank == 0:
            yield from win.start([1])
            win.put(np.int64([1]), 1, 0)
            yield from proc.compute(200.0)
            yield from win.complete()
        else:
            yield from win.post([0])
            yield from win.wait_epoch()
        yield from proc.barrier()

    rt.run(app)
    return rt


class TestChromeTrace:
    def test_events_well_formed(self):
        rt = traced_run()
        events = timeline(rt)
        assert events
        for ev in events:
            assert ev["ph"] in ("B", "E", "i", "X", "b", "e", "s", "f")
            assert isinstance(ev["ts"], float)
            assert ev["tid"] in (0, 1)
            if ev["ph"] in ("b", "e", "s", "f"):
                # Async and flow events must carry an id for pairing.
                assert "id" in ev

    def test_block_intervals_paired(self):
        rt = traced_run()
        events = timeline(rt)
        begins = sum(1 for e in events if e["ph"] == "B" and e["cat"] == "sync")
        ends = sum(1 for e in events if e["ph"] == "E" and e["cat"] == "sync")
        assert begins == ends > 0

    def test_epoch_lifetimes_paired(self):
        # Epochs export as *async* b/e events (several can be active at
        # once under reorder flags), paired by epoch id.
        rt = traced_run()
        events = timeline(rt)
        begins = [e for e in events if e["ph"] == "b" and e["cat"] == "epoch"]
        ends = [e for e in events if e["ph"] == "e" and e["cat"] == "epoch"]
        assert len(begins) == len(ends) >= 2  # access + exposure at least
        assert sorted(e["id"] for e in begins) == sorted(e["id"] for e in ends)

    def test_pattern_overlay(self):
        rt = traced_run()
        inst = detect_patterns(rt.causal)
        events = timeline(rt, inst)
        overlays = [e for e in events if e["cat"] == "inefficiency"]
        assert len(overlays) == len(inst)
        for ev in overlays:
            assert ev["ph"] == "X" and ev["dur"] > 0

    def test_write_file_is_valid_json(self, tmp_path):
        rt = traced_run()
        path = tmp_path / "trace.json"
        count = write_chrome_trace_file(path, rt, detect_patterns(rt.causal))
        data = json.loads(path.read_text())
        assert len(data["traceEvents"]) == count
        assert validate_chrome_trace(data) == count
        assert data["displayTimeUnit"] == "ms"
