"""Chrome trace-event export + schema validation, and the obs CLI."""

import json

import numpy as np
import pytest

from repro.obs import (
    export_chrome_trace,
    format_obs_report,
    format_signal_boards,
    validate_chrome_trace,
    write_chrome_trace_file,
)
from repro.patterns import detect_patterns
from repro.rma.engine.registry import ENGINES
from repro.workloads import SERIES
from tests.conftest import make_runtime


def instrumented_run(**kwargs):
    kwargs.setdefault("metrics", True)
    kwargs.setdefault("causal", True)
    rt = make_runtime(2, **kwargs)

    def app(proc):
        win = yield from proc.win_allocate(256)
        yield from proc.barrier()
        yield from win.fence()
        if proc.rank == 0:
            win.put(np.zeros(16, dtype=np.uint8), 1, 0)
        yield from win.fence()
        yield from proc.barrier()

    rt.run(app)
    return rt


class TestExport:
    def test_document_validates(self):
        doc = export_chrome_trace(instrumented_run())
        assert validate_chrome_trace(doc) == len(doc["traceEvents"])
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["nranks"] == 2
        assert doc["otherData"]["metrics"]["counters"]["rma.ops_issued"] == 1

    def test_counter_tracks_emitted(self):
        doc = export_chrome_trace(instrumented_run())
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        names = {e["name"] for e in counters}
        assert "rma.ops_issued" in names
        # One track per profiled progress step.
        assert sum(1 for n in names if n.startswith("step")) == 7

    def test_thread_name_metadata(self):
        doc = export_chrome_trace(instrumented_run())
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        by_kind = {}
        for e in meta:
            by_kind.setdefault(e["name"], []).append(e)
        names = {e["args"]["name"] for e in by_kind["thread_name"]}
        assert names == {"rank 0", "rank 1"}
        assert len(by_kind["process_name"]) == 1
        assert "nonblocking" in by_kind["process_name"][0]["args"]["name"]
        # Stable viewer ordering: one sort_index per rank, equal to it.
        sorts = {e["tid"]: e["args"]["sort_index"]
                 for e in by_kind["thread_sort_index"]}
        assert sorts == {0: 0, 1: 1}

    def test_metrics_only_run_still_valid(self):
        doc = export_chrome_trace(instrumented_run(causal=False))
        assert validate_chrome_trace(doc) > 0

    def test_flow_events_from_causal_recorder(self):
        doc = export_chrome_trace(instrumented_run())
        assert validate_chrome_trace(doc) == len(doc["traceEvents"])
        starts = [e for e in doc["traceEvents"] if e["ph"] == "s"]
        ends = [e for e in doc["traceEvents"] if e["ph"] == "f"]
        assert starts and len(starts) == len(ends)
        # Each pair shares an id; the finish is a binding end at the
        # destination rank, never earlier than its start.
        by_id = {e["id"]: e for e in starts}
        for fin in ends:
            assert fin["bp"] == "e"
            assert fin["ts"] >= by_id[fin["id"]]["ts"]
        # The one internode payload (rank 0 put -> rank 1) appears.
        assert any(e["name"] == "PutData" for e in starts)

    def test_no_flow_events_without_causal(self):
        # metrics=True arms the recorder too: only a run with neither
        # observer has no span graph to draw.
        doc = export_chrome_trace(instrumented_run(metrics=False, causal=False))
        assert not [e for e in doc["traceEvents"] if e["ph"] in "sf"]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_timeline_validates_on_every_engine(self, engine):
        rt = instrumented_run(engine=engine)
        doc = export_chrome_trace(rt, detect_patterns(rt.causal))
        assert validate_chrome_trace(doc) == len(doc["traceEvents"])
        assert {"b", "e", "B", "E", "s", "f"} <= {e["ph"] for e in doc["traceEvents"]}

    def test_write_file(self, tmp_path):
        path = tmp_path / "trace.json"
        count = write_chrome_trace_file(path, instrumented_run())
        data = json.loads(path.read_text())
        assert len(data["traceEvents"]) == count


class TestValidate:
    def ok(self):
        return {"traceEvents": [
            {"ph": "i", "ts": 1.0, "pid": 0, "tid": 0, "name": "tick"},
        ]}

    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            validate_chrome_trace([])

    def test_rejects_missing_events(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({})

    def test_rejects_unknown_phase(self):
        doc = self.ok()
        doc["traceEvents"][0]["ph"] = "Z"
        with pytest.raises(ValueError, match="unknown phase"):
            validate_chrome_trace(doc)

    def test_rejects_negative_timestamp(self):
        doc = self.ok()
        doc["traceEvents"][0]["ts"] = -1.0
        with pytest.raises(ValueError, match="bad timestamp"):
            validate_chrome_trace(doc)

    def test_rejects_async_without_id(self):
        doc = {"traceEvents": [
            {"ph": "b", "ts": 0.0, "pid": 0, "tid": 0, "name": "ep", "cat": "epoch"},
        ]}
        with pytest.raises(ValueError, match="needs an id"):
            validate_chrome_trace(doc)

    def test_rejects_flow_event_without_id(self):
        doc = {"traceEvents": [
            {"ph": "s", "ts": 0.0, "pid": 0, "tid": 0, "name": "msg", "cat": "msg"},
        ]}
        with pytest.raises(ValueError, match="needs an id"):
            validate_chrome_trace(doc)

    def test_rejects_unbalanced_durations(self):
        doc = {"traceEvents": [
            {"ph": "B", "ts": 0.0, "pid": 0, "tid": 0, "name": "blk"},
        ]}
        with pytest.raises(ValueError, match="unbalanced"):
            validate_chrome_trace(doc)

    def test_rejects_end_without_begin(self):
        doc = {"traceEvents": [
            {"ph": "E", "ts": 0.0, "pid": 0, "tid": 0},
        ]}
        with pytest.raises(ValueError, match="without matching begin"):
            validate_chrome_trace(doc)

    def test_rejects_non_numeric_counter(self):
        doc = {"traceEvents": [
            {"ph": "C", "ts": 0.0, "pid": 0, "tid": 0, "name": "c",
             "args": {"value": "many"}},
        ]}
        with pytest.raises(ValueError, match="not numeric"):
            validate_chrome_trace(doc)


class TestReport:
    def test_report_sections(self):
        text = format_obs_report(instrumented_run())
        for needle in ("7-step progress profile", "epoch lifecycle latency",
                       "counters", "fence"):
            assert needle in text


class TestSignalBoard:
    """metrics_summary folds the counter-signal engine's per-window
    SignalBoard snapshots in; the report renders them."""

    def test_summary_carries_boards_for_signal_engine(self):
        summary = instrumented_run(engine="signal").metrics_summary()
        boards = summary["signal_board"]
        # One board per (rank, window): 2 ranks x 1 window.
        assert set(boards) == {"rank0.win0", "rank1.win0"}
        for snap in boards.values():
            assert snap  # nonzero counters only — empty boards are dropped
            for channel in snap.values():
                for direction, cells in channel.items():
                    assert direction in ("out", "in", "exp")
                    assert all(v != 0 for v in cells.values())

    def test_summary_omits_boards_for_other_engines(self):
        for engine in ("nonblocking", "mvapich", "adaptive"):
            summary = instrumented_run(engine=engine).metrics_summary()
            assert "signal_board" not in summary

    def test_report_includes_board_section_only_when_present(self):
        text = format_obs_report(instrumented_run(engine="signal"))
        assert "signal boards" in text
        assert "rank0.win0" in text
        assert "signal boards" not in format_obs_report(instrumented_run())

    def test_format_signal_boards_empty_without_snapshot(self):
        assert format_signal_boards({}) == ""
        assert format_signal_boards({"counters": {}}) == ""


class TestCli:
    def test_end_to_end_artifacts(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        rc = main(["--workload", "halo", "--series", "new",
                   "--trace", str(trace), "--json", str(metrics)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "7-step progress profile" in out
        assert validate_chrome_trace(json.loads(trace.read_text())) > 0
        assert "counters" in json.loads(metrics.read_text())

    @pytest.mark.parametrize("series", SERIES, ids=lambda s: s.name)
    def test_every_series_runs_and_traces(self, series, tmp_path, capsys):
        """--series admits only engine/drive pairs that exist, and each
        one runs to a valid trace (the old --engine / --nonblocking pair
        let ``mvapich --nonblocking`` fail inside the run)."""
        from repro.obs.__main__ import main

        trace = tmp_path / "trace.json"
        assert main(["--series", series.name, "--trace", str(trace)]) == 0
        assert validate_chrome_trace(json.loads(trace.read_text())) > 0
        out = capsys.readouterr().out
        assert ("signal boards" in out) == (series.engine == "signal")

    def test_validate_good_and_bad(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        good = tmp_path / "good.json"
        good.write_text(json.dumps({"traceEvents": []}))
        assert main(["--validate", str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [{"ph": "?"}]}))
        assert main(["--validate", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().err
