"""One workload, one process: the end-to-end run and the traced run.

A rep is *construct runtime → run → collect counters* (users pay
construction on every run, so it is inside the rep); verification is
outside the timed region.  Reps run back to back in a closed loop.
End-to-end numbers come only from reps with every telemetry switch off;
the traced run is a separate pass and feeds only per-layer metrics.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.obs import attribute_epochs

from .metrics import END_TO_END, PER_LAYER, STEPS, VIRT_CATEGORIES
from .spans import Spans
from .trace import LAYERS, profile_layers
from .workloads import WORKLOADS, Outcome, Workload

__all__ = ["run_end_to_end", "run_traced", "child_env", "detail_path", "ROOT", "OUT_DIR",
           "RUN_SECONDS"]

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

#: How long one run measures unless ``--seconds`` says otherwise
#: (``BENCHMARK.json``'s ``run_seconds``).
RUN_SECONDS = 12
#: Timed reps never drop below this, however slow the machine.
MIN_REPS = 5
#: Fresh-interpreter set-up probes per run (``setup_s`` is their median).
SETUP_PROBES = 5
#: Untraced reference reps of a traced run never drop below this.
MIN_REFERENCE_REPS = 3

#: The fields of a rep that must not differ from the warm-up's.
DETERMINISTIC = ("virtual_us", "events", "digest")


def child_env() -> dict[str, str]:
    """Environment for every interpreter the harness launches."""
    env = dict(os.environ)
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def calibrate() -> float:
    """Calibration score: iterations per second of a fixed pure-Python
    spin loop.  Recorded so a machine change can be told from a
    regression; raw metrics are never rescaled by it."""
    n = 400_000
    t0 = time.process_time()
    acc = 0
    for i in range(n):
        acc = (acc + i * i) % 1_000_003
    return n / (time.process_time() - t0)


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _setup_probes(name: str, seed: int, spans: Spans) -> list[float]:
    """Fresh-interpreter set-up probes; returns their CPU seconds."""
    cpu = []
    cmd = [sys.executable, "-m", "perf", "--setup-probe", name, "--seed", str(seed)]
    for i in range(SETUP_PROBES):
        c0 = _children_cpu_s()
        with spans.span(f"setup_probe[{i}]"):
            subprocess.run(cmd, cwd=ROOT, env=child_env(), check=True,
                           stdout=subprocess.DEVNULL)
        cpu.append(_children_cpu_s() - c0)
    return cpu


def _digest(answer: Any) -> str:
    raw = answer.tobytes() if isinstance(answer, np.ndarray) else repr(answer).encode()
    return hashlib.sha256(raw).hexdigest()[:16]


def _collect(outcome: Outcome) -> dict[str, Any]:
    """Counters read off the finished runtime through its public API."""
    rt = outcome.runtime
    stats = rt.stats()
    return {
        "virtual_us": outcome.virtual_us,
        "events": rt.sim.events_scheduled,
        "messages": stats.messages_sent,
        "bytes": stats.bytes_sent,
        "fc_stalls": stats.fc_stalls,
        "regcache_hit_rate": stats.regcache_hit_rate,
        "lock_grants": stats.lock_grants,
        "live_epochs_end": stats.live_epochs,
        "sweeps": sum(e.sweep_count for e in rt.engines),
        "windows_visited": sum(e.windows_visited for e in rt.engines),
        **outcome.extras,
    }


def _rep(wl: Workload, spans: Spans, label: str,
         inspect: Callable[[Outcome], Any] | None = None,
         wrap: Callable[[Callable[[], Outcome]], Any] | None = None, **obs: bool) -> dict:
    """One rep.  A failed check raises nothing: it lands in ``failed``.

    ``inspect`` reads telemetry off the runtime before it is dropped
    (the runtime never outlives its rep, so peak RSS is one runtime);
    ``wrap`` runs the program under a profiler.
    """
    rep: dict[str, Any] = {"label": label, "failed": wl.ops, "error": None}
    gc.collect()
    with spans.span(label):
        c0 = time.process_time()
        try:
            try:
                with spans.span("run"):
                    if wrap is None:
                        outcome = wl.run(spans, **obs)
                    else:
                        outcome, rep["profile"] = wrap(lambda: wl.run(spans, **obs))
                with spans.span("collect"):
                    rep.update(_collect(outcome))
                    if inspect is not None:
                        rep["inspected"] = inspect(outcome)
            finally:
                rep["cpu_s"] = time.process_time() - c0
            with spans.span("verify"):
                rep["digest"] = _digest(outcome.answer)
                rep["failed"] = wl.ops if rep["live_epochs_end"] else wl.verify(outcome)
        except Exception:  # the rep boundary: record and count, keep measuring
            rep["error"] = traceback.format_exc()
    return rep


def _settle(rep: dict, warmup: dict, ops: int) -> None:
    """A rep whose deterministic fields differ from the warm-up's fails
    all of its operations."""
    if rep["error"] is None and any(rep[f] != warmup.get(f) for f in DETERMINISTIC):
        rep["failed"] = ops
        rep["error"] = "nondeterministic: " + ", ".join(
            f"{f} {rep[f]!r} != {warmup.get(f)!r}" for f in DETERMINISTIC
            if rep[f] != warmup.get(f))


def steady_rep_s(times: list[float]) -> float:
    """The rep time a run reports: the lower quartile of its reps.

    Neighbouring tenants of the machine only ever add time, in phases of
    seconds, so the fast half of the reps carries the signal.  Over 12
    ten-run series on this 2-vCPU VM (README, "How steady it is") the
    lower quartile spread least between runs — 7 % on average against
    10 % for the median, which follows the slow phases, and 9 % for the
    minimum, which one lucky quiet window sets.
    """
    if len(times) == 1:
        return times[0]
    return statistics.quantiles(times, n=4, method="inclusive")[0]  # never below the minimum


def _summary(times: list[float]) -> dict[str, float]:
    # n < 20 on the slower workloads, so no percentile above the median.
    return {"lower_quartile": steady_rep_s(times), "median": statistics.median(times),
            "min": min(times), "max": max(times), "n": len(times)}


def _timed_reps(wl: Workload, spans: Spans, warmup: dict, seconds: float,
                min_reps: int, reps: int | None) -> list[dict]:
    """``reps`` timed reps, or as many as the warm-up says fit ``seconds``
    (never fewer than ``min_reps``)."""
    if not reps:
        fit = 0 if warmup["error"] else math.ceil(seconds / warmup["cpu_s"])
        reps = max(min_reps, fit)
    out = []
    for i in range(reps):
        rep = _rep(wl, spans, f"rep[{i}]")
        _settle(rep, warmup, wl.ops)
        out.append(rep)
    return out


def detail_path(name: str, trace: bool) -> Path:
    """Where a run of workload ``name`` writes its detail document."""
    return OUT_DIR / f"{name}.{'trace' if trace else 'e2e'}.json"


def _finish(wl: Workload, trace: bool, warmup: dict, reps: list[dict], spans: Spans,
            metrics: dict[str, float], **fields: Any) -> dict:
    """Assemble the run's detail document and write it.  The warm-up is
    the reference the reps are compared with; it is neither timed nor
    counted as attempted."""
    failed = sum(r["failed"] for r in reps)
    attempted = wl.ops * len(reps)
    if not trace:
        metrics["fail_ratio"] = failed / attempted
    table = PER_LAYER if trace else END_TO_END
    doc = {
        "workload": wl.name,
        "seed": wl.seed,
        "why": wl.why,
        "shape": wl.shape,
        "ops": wl.ops,
        "op_unit": wl.op_unit,
        "reps": len(reps),
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "errors": [r["error"] for r in (warmup, *reps) if r["error"]],
        "deterministic": {f: warmup.get(f) for f in DETERMINISTIC},
        "metrics": {m.name: {"value": metrics[m.name], "unit": m.unit} for m in table},
        "rep_cpu_s": {r["label"]: r["cpu_s"] for r in reps},
        **fields,
        "spans": spans.records,
    }
    OUT_DIR.mkdir(exist_ok=True)
    detail_path(wl.name, trace).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return doc


def run_end_to_end(name: str, seed: int, seconds: float, reps: int | None = None) -> dict:
    """The end-to-end run of one workload: set-up probes, one untimed
    warm-up rep, then timed reps — as many as the warm-up says fit
    ``seconds``, never fewer than 5, or exactly ``reps``."""
    spans = Spans(name)
    with spans.span(name):
        calibration = [calibrate()]
        setup_cpu = _setup_probes(name, seed, spans)
        with spans.span("prepare"):
            wl = WORKLOADS[name](seed)
        warmup = _rep(wl, spans, "warmup")
        timed = _timed_reps(wl, spans, warmup, seconds, MIN_REPS, reps)
        peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        calibration.append(calibrate())
    rep_cpu = [r["cpu_s"] for r in timed]
    metrics = {
        "setup_s": statistics.median(setup_cpu),
        "ops_per_s": wl.ops / steady_rep_s(rep_cpu),
        "peak_rss_mb": peak_rss_kib / 1024.0,
        # 0 when the warm-up raised (every rep then differs from it and fails).
        "virtual_us": warmup.get("virtual_us", 0.0),
    }
    return _finish(wl, False, warmup, timed, spans, metrics,
                   rep_summary_s=_summary(rep_cpu), setup_summary_s=_summary(setup_cpu),
                   calibration=calibration)


def _causal_shares(outcome: Outcome) -> dict[str, float]:
    """Blocked-time categories summed over epochs, as exact integer-ns
    ratios of the summed active time."""
    totals = dict.fromkeys(VIRT_CATEGORIES, 0)
    for entry in attribute_epochs(outcome.runtime.causal):
        for cat, ns in entry["categories_ns"].items():
            totals[cat] += ns
    active = sum(totals.values())
    return {cat: (ns / active if active else 0.0) for cat, ns in totals.items()}


def run_traced(name: str, seed: int, seconds: float, reps: int | None = None) -> dict:
    """The traced run of one workload: untraced reference reps (for the
    overhead ratios and host-per-event figures), then one profile rep,
    one metrics rep and — RMA workloads only — one causal rep."""
    spans = Spans(name)
    with spans.span(name):
        calibration = [calibrate()]
        with spans.span("prepare"):
            wl = WORKLOADS[name](seed)
        warmup = _rep(wl, spans, "warmup")
        reference = _timed_reps(wl, spans, warmup, seconds / 2, MIN_REFERENCE_REPS, reps)
        profiled = _rep(wl, spans, "profile_rep", wrap=profile_layers)
        metered = _rep(wl, spans, "metrics_rep", metrics=True,
                       inspect=lambda o: o.runtime.profiler.summary())
        traced = [profiled, metered]
        if wl.rma:
            traced.append(_rep(wl, spans, "causal_rep", causal=True, inspect=_causal_shares))
        calibration.append(calibrate())
    for rep in traced:
        _settle(rep, warmup, wl.ops)
    rep_cpu = [r["cpu_s"] for r in reference]
    metrics = _per_layer_values(steady_rep_s(rep_cpu), *traced)
    return _finish(wl, True, warmup, [*reference, *traced], spans, metrics,
                   layers=profiled.get("profile"), step_profile=metered.get("inspected"),
                   rep_summary_s=_summary(rep_cpu), calibration=calibration)


def _per_layer_values(host_s: float, profiled: dict, metered: dict,
                      causal: dict | None = None) -> dict[str, float]:
    """Every per-layer metric; 0 where it does not apply to the workload
    or its rep failed (the failure is already counted)."""
    values = dict.fromkeys((m.name for m in PER_LAYER), 0.0)
    if profiled["error"] is None:
        events, layers = profiled["events"], profiled["profile"]
        self_total = sum(layer["self_s"] for layer in layers.values())
        for layer in LAYERS:
            values[f"{layer}.self_share"] = layers[layer]["self_s"] / self_total
            values[f"{layer}.calls_per_event"] = layers[layer]["calls"] / events
        values["total.calls_per_event"] = sum(la["calls"] for la in layers.values()) / events
        values.update({
            "simtime.events": events,
            "simtime.host_us_per_event": host_s * 1e6 / events,
            "simtime.events_per_s": events / host_s,
            "network.messages": profiled["messages"],
            "network.bytes": profiled["bytes"],
            "network.fc_stalls": profiled["fc_stalls"],
            "network.regcache_hit_rate": profiled["regcache_hit_rate"],
            "rma.engine.sweeps": profiled["sweeps"],
            "rma.engine.windows_visited": profiled["windows_visited"],
            "rma.engine.sweeps_per_event": profiled["sweeps"] / events,
            "rma.lock_grants": profiled["lock_grants"],
            "rma.live_epochs_end": profiled["live_epochs_end"],
            "virt.makespan_us": profiled["virtual_us"],
            "trace.profile_overhead": profiled["cpu_s"] / host_s,
        })
        values.update({k: v for k, v in profiled.items() if k.startswith("apps.")})
    if metered.get("inspected"):
        steps = metered["inspected"]["steps"]
        step_wall = sum(steps[str(n)]["wall_ms"] for n in STEPS)
        for n in STEPS:
            values[f"rma.engine.step{n}_work"] = steps[str(n)]["work"]
            values[f"rma.engine.step{n}_wall_share"] = (
                steps[str(n)]["wall_ms"] / step_wall if step_wall else 0.0)
        values["obs.metrics_overhead"] = metered["cpu_s"] / host_s
    if causal is not None and causal.get("inspected"):
        for cat, share in causal["inspected"].items():
            values[f"virt.{cat}_share"] = share
        values["obs.causal_overhead"] = causal["cpu_s"] / host_s
    return values
