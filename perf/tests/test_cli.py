"""The command: BENCHMARK.json is the tables' output, a quick ledger run
emits every metric, a crashed child is never mistaken for a result, and
the benchmark refuses to run without the program."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

from perf.harness import detail_path
from perf.ledger import BENCHMARK_PATH, FAILED_OPS_EXIT, benchmark_document
from perf.metrics import BOUNDED, END_TO_END, PER_LAYER
from perf.workloads import QUICK

ROOT = Path(__file__).resolve().parents[2]


def run_perf(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "-m", "perf", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def test_benchmark_json_is_generated_from_the_tables_and_meets_its_contract():
    doc = json.loads(BENCHMARK_PATH.read_text())
    assert doc == benchmark_document(), "regenerate: python3 -m perf --write-benchmark"
    assert [w["name"] for w in doc["workloads"]] == list(QUICK)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())  # the contract's ceiling
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for m in (*doc["end_to_end"], *doc["per_layer"])] + list(QUICK)
    assert len(set(names)) == len(names) and len(doc["per_layer"]) <= 128
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)


def test_a_quick_ledger_run_emits_every_metric(tmp_path):
    out = tmp_path / "ledger.json"
    done = run_perf("--quick", "--json", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    doc = json.loads(out.read_text())
    assert set(doc["stamp"]) == {"git_rev", "dirty", "python", "nproc", "seed", "seconds",
                                 "calibration"}
    assert [m["name"] for m in doc["metrics"]["end_to_end"]] == [m.name for m in END_TO_END]
    assert all(m["layer"] and m["moves"] for m in doc["metrics"]["per_layer"])
    assert set(doc["workloads"]) == set(QUICK)
    for name, wl in doc["workloads"].items():
        assert wl["failed"] == 0 and wl["reps"] == 2 and wl["shape"] and wl["why"]
        assert set(wl["end_to_end"]) == {m.name for m in END_TO_END}
        assert set(wl["per_layer"]) == {m.name for m in PER_LAYER}
        assert all(wl["end_to_end"][m.name]["value"] > 0 for m in END_TO_END[:4])
        assert wl["end_to_end"]["fail_ratio"]["value"] == 0
        assert wl["end_to_end"]["virtual_us"] == wl["per_layer"]["virt.makespan_us"]
        spans = json.loads(detail_path(name, trace=True).read_text())["spans"]
        assert {s["workload"] for s in spans} == {name}
        assert spans[0]["parent"] is None and all(s["end"] >= s["start"] for s in spans)
    for metric in (*END_TO_END, *PER_LAYER):
        assert done.stdout.count(f"  {metric.name} ") == len(QUICK), metric.name
    per_layer = {name: wl["per_layer"] for name, wl in doc["workloads"].items()}
    assert per_layer["txn_blocking_quick"]["virt.lock_wait_share"]["value"] > 0
    assert per_layer["p2p_ring_quick"]["obs.causal_overhead"]["value"] == 0
    assert doc["design_violations"] == []
    assert doc["derived"]["virtual_us_txn_blocking_over_txn_deferred"] > 1
    # The same document compares clean against itself.
    same = run_perf("--compare", str(out), str(out))
    assert same.returncode == 0 and same.stdout.count("exact fields identical") == len(QUICK)


def test_one_workload_run_ends_with_one_json_result():
    done = run_perf("--workload", "p2p_ring_quick", "--seed", "9", "--seconds", "0",
                    "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 5 * QUICK["p2p_ring_quick"](9).ops  # the floor of 5 reps
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m.name: m.unit for m in BOUNDED}


def test_a_crashed_child_fails_the_ledger_and_no_earlier_result_stands_in(tmp_path, monkeypatch):
    shutil.copytree(ROOT / "perf", tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    # An earlier, successful run leaves its detail file behind ...
    earlier = run_perf("--workload", "p2p_ring_quick", "--reps", "1", cwd=tmp_path)
    stale = tmp_path / "perf" / "out" / "p2p_ring_quick.e2e.json"
    assert earlier.returncode == 0 and stale.exists()
    # ... then the program breaks on import, but only in the ledger's
    # children (it gives them PYTHONHASHSEED=0), which exit with code 1.
    monkeypatch.delenv("PYTHONHASHSEED", raising=False)
    with open(tmp_path / "src" / "repro" / "__init__.py", "a") as init:
        init.write("\nimport os\nif os.environ.get('PYTHONHASHSEED') == '0':\n"
                   "    raise ImportError('broken program')\n")
    done = run_perf("--only", "p2p_ring_quick", "--no-trace", "--reps", "1", cwd=tmp_path)
    assert done.returncode not in (0, FAILED_OPS_EXIT)
    assert "exited 1 without a result" in done.stderr and "broken program" in done.stderr
    assert "ops_per_s" not in done.stdout and not stale.exists()


def test_bad_arguments_and_a_missing_program_exit_nonzero(tmp_path):
    assert run_perf("--workload", "nope", "--trace", "0").returncode != 0
    assert run_perf("--workload", "p2p_ring_quick", "--seed", "-1").returncode == 2
    shutil.copy(BENCHMARK_PATH, tmp_path)
    shutil.copytree(ROOT / "perf", tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_perf("--workload", "p2p_ring_quick", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0 and not done.stdout.strip()
