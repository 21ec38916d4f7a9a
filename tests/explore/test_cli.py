"""CLI determinism and exit-code contract of ``python -m repro.explore``."""

from __future__ import annotations

import argparse
import json

import pytest

import repro.explore
from repro.explore.__main__ import _parser, main
from repro.obs.__main__ import _build_parser as _obs_parser
from repro.workloads import SERIES


def test_run_json_report(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(["run", "--workloads", "transactions", "--schedules", "2",
                 "--json", "--out", str(out)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert doc["mismatches"] == []
    assert len(doc["runs"]) == 4 * 3  # 4 variants x (baseline + 2 schedules)
    assert json.loads(out.read_text()) == doc


def test_run_engines_filter(capsys):
    """``--variants`` picks the swept series by series name."""
    code = main(["run", "--workloads", "transactions", "--schedules", "1",
                 "--variants", "signal", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert len(doc["runs"]) == 1 * 2  # signal variant only x (baseline + 1)
    assert {r["variant"] for r in doc["runs"]} == {"signal"}


def test_run_engines_filter_rejects_unknown():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--workloads", "transactions", "--variants", "new,nonblocking"])
    msg = str(exc.value)
    assert "'nonblocking'" in msg  # an engine name is not a series name
    for s in SERIES:
        assert s.name in msg


def test_run_engines_filter_rejects_empty():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--workloads", "transactions", "--variants", " , "])
    assert "named no series" in str(exc.value)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--workloads", "transactions", "--engines", "signal"])
    assert exc.value.code == 2  # the engine-name flag is gone: usage error


def test_replay_is_byte_identical(capsys):
    args = ["replay", "--workload", "ordering", "--variant", "new-nonblocking",
            "--seed", "0xC0FFEE", "--json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["run"]["spec"]["seed"] == 0xC0FFEE
    assert len(doc["digest"]["strict_sha"]) == 64


def test_replay_expect_strict_gate(capsys):
    base = ["replay", "--workload", "transactions", "--variant", "new",
            "--seed", "7", "--json"]
    assert main(base) == 0
    sha = json.loads(capsys.readouterr().out)["digest"]["strict_sha"]
    assert main(base + ["--expect-strict", sha]) == 0
    capsys.readouterr()
    assert main(base + ["--expect-strict", "0" * 64]) == 1


def test_replay_needs_a_token():
    with pytest.raises(SystemExit):
        main(["replay", "--workload", "halo", "--variant", "new"])


def test_shrink_refuses_passing_seed(capsys):
    # On the healthy engine no seed fails, so shrink must report
    # "nothing to shrink" via exit code 2.
    code = main(["shrink", "--workload", "ordering", "--variant",
                 "new-nonblocking", "--seed", "42"])
    assert code == 2


def test_shrink_minimizes_under_mutation(capsys):
    from repro.explore.mutation import activation_gate_disabled

    with activation_gate_disabled():
        code = main(["shrink", "--workload", "ordering", "--variant",
                     "new-nonblocking", "--seed", "42", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["ids"]) == 1
    assert doc["spec"]["restrict"] == doc["ids"]


def _choices(parser: argparse.ArgumentParser, dest: str) -> list:
    return list(next(a.choices for a in parser._actions if a.dest == dest))


def test_the_cli_columns_are_the_series_table():
    """One column table: the explorer keeps no copy of the series (or of
    the workload rows), and both CLIs offer exactly the series names."""
    for gone in ("EngineVariant", "VARIANTS", "WORKLOADS"):
        assert not hasattr(repro.explore, gone), gone
    names = [s.name for s in SERIES]
    sub = next(a for a in _parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert _choices(sub.choices["replay"], "variant") == names
    assert _choices(_obs_parser(), "series") == names
