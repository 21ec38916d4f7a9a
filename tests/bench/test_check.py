"""Bench regression guard (``python -m repro.bench --check``)."""

from __future__ import annotations

import json
import re
from dataclasses import replace
from functools import partial

import pytest

from repro.bench import FIGURES, registry
from repro.bench.check import compare_docs
from repro.bench.__main__ import main
from repro.workloads import SERIES


def _doc(values):
    return {
        "meta": {},
        "figures": [{
            "figure": "fig02",
            "title": "t",
            "unit": "µs",
            "columns": list(values),
            "rows": [{"series": "New", "values": dict(values)}],
        }],
    }


class TestCompareDocs:
    def test_identical_docs_pass(self):
        doc = _doc({"a": 10.0, "b": 0.0})
        verdict = compare_docs(doc, doc)
        assert verdict == {"ok": True, "checked": 2, "drifts": []}

    def test_drift_beyond_tolerance_fails_with_detail(self):
        """Any difference is a drift — there is no tolerance to be
        within; ``rel_change`` says how far, as information."""
        verdict = compare_docs(_doc({"a": 10.0}), _doc({"a": 12.5}))
        assert not verdict["ok"]
        (drift,) = verdict["drifts"]
        assert drift["figure"] == "fig02" and drift["column"] == "a"
        assert drift["rel_change"] == 0.25
        tiny = compare_docs(_doc({"a": 10.0}), _doc({"a": 10.0 * (1 + 1e-15)}))
        assert not tiny["ok"] and 0 < tiny["drifts"][0]["rel_change"] < 1e-14

    def test_shrink_drift_also_fails(self):
        verdict = compare_docs(_doc({"a": 10.0}), _doc({"a": 7.0}))
        assert not verdict["ok"]
        assert verdict["drifts"][0]["rel_change"] == -0.3

    def test_zero_baseline_requires_zero_current(self):
        verdict = compare_docs(_doc({"a": 0.0}), _doc({"a": 0.0}))
        assert verdict["ok"] and verdict["checked"] == 1
        assert not compare_docs(_doc({"a": 0.0}), _doc({"a": 1e-300}))["ok"]

    def test_missing_structure_is_a_drift(self):
        base = _doc({"a": 1.0, "b": 2.0})
        cur = _doc({"a": 1.0})
        verdict = compare_docs(base, cur)
        assert not verdict["ok"]
        (drift,) = verdict["drifts"]
        assert drift["current"] == "missing" and drift["column"] == "b"
        # the vanished slot still counts as examined
        assert verdict["checked"] == 2
        # whole figure missing
        verdict = compare_docs(base, {"meta": {}, "figures": []})
        assert verdict["drifts"][0]["series"] == "*"
        assert verdict["checked"] == 2

    def test_new_column_in_current_is_a_drift(self):
        verdict = compare_docs(_doc({"a": 1.0}), _doc({"a": 1.0, "b": 2.0}))
        assert not verdict["ok"]
        (drift,) = verdict["drifts"]
        assert drift["baseline"] == "missing" and drift["column"] == "b"
        assert drift["rel_change"] is None
        assert verdict["checked"] == 2

    def test_new_series_in_current_is_a_drift(self):
        cur = _doc({"a": 1.0})
        cur["figures"][0]["rows"].append(
            {"series": "Extra", "values": {"a": 1.0, "b": 2.0}})
        verdict = compare_docs(_doc({"a": 1.0}), cur)
        assert not verdict["ok"]
        (drift,) = verdict["drifts"]
        assert drift["series"] == "Extra" and drift["baseline"] == "missing"
        assert verdict["checked"] == 3

    def test_new_figure_in_current_is_a_drift(self):
        cur = _doc({"a": 1.0})
        cur["figures"].append({"figure": "fig99", "title": "n", "unit": "µs",
                               "columns": ["x"],
                               "rows": [{"series": "New", "values": {"x": 1}}]})
        verdict = compare_docs(_doc({"a": 1.0}), cur)
        assert not verdict["ok"]
        (drift,) = verdict["drifts"]
        assert drift["figure"] == "fig99" and drift["baseline"] == "missing"
        assert drift["current"] == "present"
        assert verdict["checked"] == 2

    def test_symmetric_structural_drift_both_ways(self):
        """A column renamed without re-baselining drifts twice: once as
        the vanished old name, once as the unexpected new one."""
        verdict = compare_docs(_doc({"old": 1.0}), _doc({"new": 1.0}))
        assert not verdict["ok"]
        directions = {(d["baseline"], d["current"]) for d in verdict["drifts"]}
        assert (1.0, "missing") in directions
        assert ("missing", 1.0) in directions
        assert verdict["checked"] == 2


def _passes(capsys, *argv) -> bool:
    """``main(argv)`` exits 0 *and* says it examined something — a
    check that compared no value must not count as a pass."""
    capsys.readouterr()
    code = main(list(argv))
    out = capsys.readouterr().out
    checked = int(re.search(r"checked (\d+) values", out).group(1))
    return code == 0 and checked > 0 and "no drift" in out


def _unreadable_baselines_exit_2(tmp_path, capsys, monkeypatch, *mode):
    """A missing, a non-JSON, a row-less and a non-numeric baseline each
    exit 2 with one line on stderr — before any figure or sweep runs."""
    def ran(*_args, **_kwargs):
        raise AssertionError("ran before the baseline was read")
    monkeypatch.setattr("repro.bench.__main__.collect_json", ran)
    monkeypatch.setattr("repro.bench.__main__.run_scaling", ran)
    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json {")
    rowless = tmp_path / "rowless.json"
    rowless.write_text(json.dumps({"figures": [{"figure": "fig02"}]}))
    textual = tmp_path / "textual.json"
    textual.write_text(json.dumps(_doc({"a": "fast"})))
    for path in (tmp_path / "nonexistent.json", garbage, rowless, textual):
        capsys.readouterr()
        assert main(["--check", str(path), *mode]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err


class TestCheckCli:
    def test_check_against_self_passes(self, tmp_path, capsys):
        """Regenerate one cheap figure, self-check it, inspect the
        artifact the CI job uploads."""
        baseline = tmp_path / "base.json"
        assert main(["fig02", "--json", str(baseline)]) == 0
        diff = tmp_path / "diff.json"
        assert _passes(capsys, "--check", str(baseline),
                       "--diff-out", str(diff), "fig02")
        artifact = json.loads(diff.read_text())
        assert artifact["ok"] and artifact["drifts"] == []
        assert artifact["checked"] > 0
        assert artifact["baseline"] == str(baseline)

    def test_check_flags_doctored_baseline(self, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        assert main(["fig02", "--json", str(baseline)]) == 0
        doc = json.loads(baseline.read_text())
        row = doc["figures"][0]["rows"][0]
        col = doc["figures"][0]["columns"][0]
        row["values"][col] *= 2  # pretend the committed baseline was 2x
        baseline.write_text(json.dumps(doc))
        diff = tmp_path / "diff.json"
        code = main(["--check", str(baseline), "--diff-out", str(diff), "fig02"])
        assert code == 1
        artifact = json.loads(diff.read_text())
        assert not artifact["ok"]
        assert any(d["rel_change"] for d in artifact["drifts"])
        assert "DRIFT" in capsys.readouterr().out

    def test_drift_of_1e_9_fails_with_no_flag_given(self, tmp_path, capsys):
        """The gate is exact and has no knob: one cell off by 1e-9
        relative is a drift."""
        baseline = tmp_path / "base.json"
        assert main(["fig02", "--json", str(baseline)]) == 0
        doc = json.loads(baseline.read_text())
        doc["figures"][0]["rows"][0]["values"][doc["figures"][0]["columns"][0]] *= 1 + 1e-9
        baseline.write_text(json.dumps(doc))
        assert main(["--check", str(baseline), "fig02"]) == 1
        out = capsys.readouterr().out
        assert out.count("DRIFT fig02") == 1 and "e-07%" in out

    def test_bad_flag_usage(self, capsys):
        assert main(["--check"]) == 2
        assert main(["--slope-gate", "abc"]) == 2

    def test_unreadable_baseline_is_a_usage_error_not_a_drift(
            self, tmp_path, capsys, monkeypatch):
        _unreadable_baselines_exit_2(tmp_path, capsys, monkeypatch, "fig02")

    def test_subset_check_filters_full_baseline(self, tmp_path, capsys):
        # A named-figure check against a multi-figure baseline compares
        # only the named figure — the others are not structural drifts.
        baseline = tmp_path / "base.json"
        assert main(["fig02", "fig08", "--json", str(baseline)]) == 0
        assert _passes(capsys, "--check", str(baseline), "fig02")
        # Doctor fig08: the fig02-only check stays blind to it, the
        # unfiltered check catches it.
        doc = json.loads(baseline.read_text())
        fig08 = next(f for f in doc["figures"] if f["figure"] == "fig08")
        row = fig08["rows"][0]
        row["values"][fig08["columns"][0]] += 1000.0
        baseline.write_text(json.dumps(doc))
        assert _passes(capsys, "--check", str(baseline), "fig02")
        assert main(["--check", str(baseline)]) == 1

    def test_named_figure_missing_from_baseline_is_a_drift(self, tmp_path, capsys):
        """If the baseline lost a figure named on the command line, the
        gate must fail, not compare zero values and report "no drift"."""
        baseline = tmp_path / "base.json"
        assert main(["fig02", "--json", str(baseline)]) == 0
        diff = tmp_path / "diff.json"
        code = main(["--check", str(baseline), "--diff-out", str(diff), "fig08"])
        assert code == 1
        artifact = json.loads(diff.read_text())
        (drift,) = artifact["drifts"]
        assert (drift["figure"], drift["baseline"], drift["current"]) == (
            "fig08", "missing", "present")
        assert artifact["checked"] > 0
        assert "DRIFT fig08" in capsys.readouterr().out
        # One present, one missing: still a drift, and fig02 still compared.
        assert main(["--check", str(baseline), "fig02", "fig08"]) == 1


class TestRegistryRoundTrip:
    """What a registry entry declares is what the JSON document and the
    regression guard see."""

    def test_every_entry_exports_exactly_its_columns(self, monkeypatch, built):
        # The full Fig. 12 sweep takes minutes; its entry's shape is
        # what is under test, so stand in for the simulation only.  The
        # other entries export the session's one build of their rows.
        monkeypatch.setattr(registry, "run_scaling", lambda ranks: {
            "ranks": list(ranks),
            "cells": {s.label: {n: {"throughput": 1.0 / n} for n in ranks}
                      for s in SERIES}})
        monkeypatch.setattr(registry, "FIGURES", {
            name: fig if name == "fig12_collapse" else replace(fig, build=partial(built, name))
            for name, fig in FIGURES.items()})
        docs = registry.collect_json(list(FIGURES))
        assert [d["figure"] for d in docs] == list(FIGURES)
        for doc in docs:
            entry = FIGURES[doc["figure"]]
            assert (doc["title"], doc["unit"]) == (entry.title, entry.unit)
            assert doc["columns"] == list(entry.columns)
            assert doc["rows"]
            for row in doc["rows"]:
                assert list(row["values"]) == list(entry.columns)


class TestScalingCheck:
    """``--scaling --check``: the run's cells are a ``fig12_collapse``
    document compared by ``compare_docs``, the baseline filtered to the
    run's rank columns."""

    GATE = ["--slope-gate", "1e9"]  # tiny cells: wall noise is not under test

    @pytest.fixture()
    def baseline(self, tmp_path):
        report = tmp_path / "scaling.json"
        assert main(["--scaling", "--ranks", "4,8", "--json", str(report), *self.GATE]) == 0
        cells = json.loads(report.read_text())["scaling"]["cells"]
        doc = {"meta": {}, "figures": [{
            "figure": "fig12_collapse", "title": "t", "unit": "puts/µs",
            "columns": ["4", "8", "16"],
            "rows": [{"series": name,
                      "values": {**{n: c["throughput"] for n, c in by_rank.items()},
                                 "16": 1.0}}  # a committed rank this run skips
                     for name, by_rank in cells.items()]}]}
        path = tmp_path / "base.json"
        path.write_text(json.dumps(doc))
        return path

    def test_rank_subset_of_the_committed_figure_passes(self, baseline, capsys):
        assert main(["--scaling", "--ranks", "4,8", "--check", str(baseline), *self.GATE]) == 0
        out = capsys.readouterr().out
        assert f"{2 * len(SERIES)} cells compared exactly" in out

    def test_drift_far_below_any_tolerance_fails(self, baseline, capsys):
        doc = json.loads(baseline.read_text())
        doc["figures"][0]["rows"][0]["values"]["8"] *= 1 + 1e-12
        baseline.write_text(json.dumps(doc))
        assert main(["--scaling", "--ranks", "4,8", "--check", str(baseline), *self.GATE]) == 1
        assert "DRIFT fig12_collapse" in capsys.readouterr().out

    def test_unknown_rank_or_missing_figure_fails(self, baseline, tmp_path, capsys):
        assert main(["--scaling", "--ranks", "4,6", "--check", str(baseline), *self.GATE]) == 1
        assert "/6: missing" in capsys.readouterr().out
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"meta": {}, "figures": []}))
        assert main(["--scaling", "--ranks", "4", "--check", str(empty), *self.GATE]) == 1

    def test_unreadable_baseline_exits_2_before_the_sweep(
            self, tmp_path, capsys, monkeypatch):
        _unreadable_baselines_exit_2(tmp_path, capsys, monkeypatch,
                                     "--scaling", "--ranks", "4")
