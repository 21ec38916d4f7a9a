"""The ledger: every workload, one fresh interpreter each, one document.

The parent launches one child per (workload, pass), never two at a
time, reads the detail file that child wrote, prints every metric by
name with its unit and clock, and writes the JSON document.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from .harness import ROOT, RUN_SECONDS, child_env, detail_path
from .metrics import BOUNDED, END_TO_END, MOVES, PER_LAYER, layer_of_metric
from .trace import LAYERS
from .workloads import QUICK

__all__ = ["run_ledger", "design_checks", "format_ledger", "format_metrics", "write_ledger",
           "benchmark_document", "BENCHMARK_PATH", "FAILED_OPS_EXIT", "ChildCrashed"]

BENCHMARK_PATH = ROOT / "BENCHMARK.json"
#: Exit code of a run that finished and printed its metrics, but in which
#: some operation failed its check.  Any other non-zero code is a crash.
FAILED_OPS_EXIT = 3


def benchmark_document() -> dict:
    """``BENCHMARK.json``, generated from the tables: the quarter-size
    workloads, the bounded end-to-end metrics and every per-layer one."""
    return {
        "command": ["python3", "-m", "perf"],
        "paths": ["perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": cls.name, "why": cls.why} for cls in QUICK.values()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
                       for m in BOUNDED],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def stamp(seed: int, seconds: float) -> dict:
    status = _git("status", "--porcelain")
    return {
        "git_rev": _git("rev-parse", "HEAD"),
        "dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "seconds": seconds,
    }


class ChildCrashed(RuntimeError):
    """A workload's interpreter ended without a result."""


def _child(name: str, seed: int, seconds: float, reps: int | None, trace: bool) -> dict:
    """Run one workload pass in a fresh interpreter; returns the detail
    document that run wrote.  Raises unless the child ran to the end."""
    cmd = [sys.executable, "-m", "perf", "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    if reps:
        cmd += ["--reps", str(reps)]
    detail = detail_path(name, trace)
    detail.unlink(missing_ok=True)  # never read what an earlier run left behind
    done = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=900)
    if done.returncode not in (0, FAILED_OPS_EXIT) or not detail.exists():
        raise ChildCrashed(f"{name} (--trace {int(trace)}) child exited {done.returncode} "
                           f"without a result:\n{done.stderr}")
    return json.loads(detail.read_text())


def _describe(metric, **more) -> dict:
    return {"name": metric.name, "unit": metric.unit, "clock": metric.clock,
            "better": metric.better, "exact": metric.exact, **more}


#: What the ledger keeps of an end-to-end detail document, besides its metrics.
_E2E_FIELDS = ("why", "shape", "seed", "ops", "op_unit", "reps", "attempted", "failed",
               "errors", "calibration", "rep_summary_s", "setup_summary_s", "deterministic")


def run_ledger(names: list[str], seed: int, seconds: float, reps: int | None,
               trace: bool) -> dict:
    """End-to-end pass over ``names`` in the given order, then (unless
    ``trace`` is off) the traced pass; returns the ledger document."""
    doc: dict = {
        "stamp": stamp(seed, seconds),
        "metrics": {
            "end_to_end": [_describe(m, bound=m.bound) for m in END_TO_END],
            "per_layer": [_describe(m, layer=layer_of_metric(m.name),
                                    moves=MOVES[layer_of_metric(m.name)]) for m in PER_LAYER],
        },
        "workloads": {},
        "derived": {},
    }
    for name in names:
        print(f"[e2e]   {name} ...", flush=True)
        d = _child(name, seed, seconds, reps, trace=False)
        doc["workloads"][name] = {**{f: d[f] for f in _E2E_FIELDS}, "end_to_end": d["metrics"]}
    if trace:
        for name in names:
            print(f"[trace] {name} ...", flush=True)
            d = _child(name, seed, seconds, reps, trace=True)
            entry = doc["workloads"][name]
            entry["per_layer"] = d["metrics"]
            entry["attempted"] += d["attempted"]
            entry["failed"] += d["failed"]
            entry["errors"] += d["errors"]
            entry["calibration"] += d["calibration"]
            if d["deterministic"] != entry["deterministic"]:
                entry["failed"] += d["ops"]
                entry["errors"].append("traced pass disagrees with end-to-end pass: "
                                       f"{d['deterministic']} != {entry['deterministic']}")
            entry["end_to_end"]["fail_ratio"]["value"] = entry["failed"] / entry["attempted"]
    doc["stamp"]["calibration"] = statistics.median(
        score for wl in doc["workloads"].values() for score in wl["calibration"])
    virt = {n.removesuffix("_quick"): w["end_to_end"]["virtual_us"]["value"]
            for n, w in doc["workloads"].items()}
    if virt.get("txn_blocking") and virt.get("txn_deferred"):
        # The paper's figure: nonblocking + A_A_A_R against blocking on
        # the identical stream.  Derived, not a named metric.
        doc["derived"]["virtual_us_txn_blocking_over_txn_deferred"] = (
            virt["txn_blocking"] / virt["txn_deferred"])
    doc["design_violations"] = design_checks(doc)
    return doc


def design_checks(doc: dict) -> list[str]:
    """The workloads must separate the layers as designed; returns the
    violated expectations (checked on whatever subset was run)."""
    bad = []
    # A quarter-size workload answers for its program too.
    wls = {name.removesuffix("_quick"): wl for name, wl in doc["workloads"].items()}

    def share(name: str, layer: str) -> float | None:
        per_layer = wls.get(name, {}).get("per_layer")
        return per_layer[f"{layer}.self_share"]["value"] if per_layer else None

    for name, wl in wls.items():
        if "per_layer" not in wl:
            continue
        total = sum(share(name, layer) for layer in LAYERS)
        if abs(total - 1.0) > 1e-9:
            bad.append(f"{name}: layer shares sum to {total!r}, not 1")
        if share(name, "faults") != 0:
            bad.append(f"{name}: faults.self_share is {share(name, 'faults')}, expected 0")
    deferred, blocking = share("txn_deferred", "rma.engine"), share("txn_blocking", "rma.engine")
    if deferred is not None and deferred <= 0.45:
        bad.append(f"txn_deferred: rma.engine.self_share {deferred:.3f} <= 0.45")
    if deferred is not None and blocking is not None and blocking >= deferred:
        bad.append(f"txn_blocking: rma.engine.self_share {blocking:.3f} not below "
                   f"txn_deferred's {deferred:.3f}")
    ring = share("p2p_ring", "rma.engine")
    if ring is not None:
        if ring >= 0.05:
            bad.append(f"p2p_ring: rma.engine.self_share {ring:.3f} >= 0.05")
        lower = sum(share("p2p_ring", layer) for layer in ("simtime", "network", "mpi"))
        if lower <= 0.6:
            bad.append(f"p2p_ring: simtime+network+mpi self share {lower:.3f} <= 0.6")
    ratio = doc["derived"].get("virtual_us_txn_blocking_over_txn_deferred")
    if ratio is not None and ratio <= 1.0:
        bad.append(f"virtual_us(txn_blocking)/virtual_us(txn_deferred) = {ratio:.3f} <= 1")
    return bad


def format_metrics(metrics, values: dict) -> list[str]:
    """One line per metric: name, value, unit, clock."""
    return [
        f"  {m.name:<34}{values[m.name]['value']:>18.{12 if m.exact else 6}g} {m.unit:<12} "
        f"[{m.clock}{', exact' if m.exact else ''}]"
        for m in metrics
    ]


def format_ledger(doc: dict) -> str:
    s = doc["stamp"]
    lines = [f"== performance ledger: rev {s['git_rev']} dirty={s['dirty']} python "
             f"{s['python']} nproc {s['nproc']} seed {s['seed']} calibration "
             f"{s['calibration']:.0f} loops/s =="]
    for name, wl in doc["workloads"].items():
        rep = wl["rep_summary_s"]
        lines.append(
            f"{name}: {wl['ops']} {wl['op_unit']}s/rep, {rep['n']} timed reps, rep lower "
            f"quartile {rep['lower_quartile']:.4f} cpu s (median {rep['median']:.4f}, min "
            f"{rep['min']:.4f}, max {rep['max']:.4f}), "
            f"failed {wl['failed']}/{wl['attempted']}, calibration "
            f"{min(wl['calibration']):.0f}..{max(wl['calibration']):.0f} loops/s")
        lines += format_metrics(END_TO_END, wl["end_to_end"])
        if "per_layer" in wl:
            lines += format_metrics(PER_LAYER, wl["per_layer"])
        lines += [f"  ERROR: {e.strip().splitlines()[-1]}" for e in wl["errors"]]
    for key, value in doc["derived"].items():
        lines.append(f"derived {key} = {value:.4f}")
    lines += [f"DESIGN VIOLATION: {v}" for v in doc["design_violations"]]
    return "\n".join(lines)


def write_ledger(doc: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
