"""One comparator for two ledger documents.

Host metrics are compared one-sidedly against their bound; the exact
end-to-end metrics (``virtual_us``, ``fail_ratio``), the deterministic
fields and every per-layer metric tagged exact must be identical, and
``fail_ratio`` must be 0.  A workload of the first document that the
second lacks is a failed row.  A calibration-score gap above 10 % means
the two documents come from different machines, and their host rows are
reported as unresolved instead of judged.
"""

from __future__ import annotations

from .metrics import END_TO_END, PER_LAYER

__all__ = ["compare", "CALIBRATION_GAP", "BOUNDS"]

CALIBRATION_GAP = 0.10
BOUNDS = {m.name: m.bound for m in END_TO_END if m.bound is not None}


def worsening(metric, before: float, after: float) -> float:
    """Share of ``before`` by which ``after`` is worse (negative = better)."""
    if before == 0:  # no base to take a share of: any change is out of bounds
        return 0.0 if after == 0 else float("inf")
    delta = (after - before) / before
    return delta if metric.better == "lower" else -delta


def compare(before: dict, after: dict,
            bounds: dict[str, float] = BOUNDS) -> tuple[list[str], bool]:
    """Compare two ledger documents; returns (report lines, ok).

    ``bounds`` maps each host end-to-end metric to the share by which it
    may worsen.  One row per workload of ``before``.
    """
    lines: list[str] = []
    ok = True
    cal_a, cal_b = before["stamp"]["calibration"], after["stamp"]["calibration"]
    same_machine = abs(cal_b - cal_a) / cal_a <= CALIBRATION_GAP
    if not same_machine:
        lines.append(f"calibration {cal_a:.0f} -> {cal_b:.0f} loops/s: different machine, "
                     "host rows unresolved")
    for name, a in before["workloads"].items():
        b = after["workloads"].get(name)
        if b is None:
            ok = False
            lines.append(f"{name}: MISSING from the second document")
            continue
        cells = []
        drift = [f for f, v in a["deterministic"].items() if b["deterministic"].get(f) != v]
        for metric in END_TO_END:
            va = a["end_to_end"][metric.name]["value"]
            vb = b["end_to_end"][metric.name]["value"]
            if metric.exact:
                if va != vb and metric.name not in drift:
                    drift.append(metric.name)
                continue
            worse = worsening(metric, va, vb)
            if not same_machine:
                verdict = "unresolved"
            elif worse > bounds[metric.name]:
                verdict, ok = "REGRESSION", False
            else:
                verdict = "ok"
            cells.append(f"{metric.name} {va:.4g} -> {vb:.4g} {metric.unit} "
                         f"({-worse:+.1%} {verdict})")
        if "per_layer" in a and "per_layer" in b:
            drift += [m.name for m in PER_LAYER if m.exact
                      and a["per_layer"][m.name]["value"] != b["per_layer"][m.name]["value"]]
        if drift:
            ok = False
            cells.append("EXACT DRIFT: " + ", ".join(drift))
        else:
            cells.append("exact fields identical")
        if a["failed"] or b["failed"]:
            ok = False
            cells.append(f"FAILED OPERATIONS: fail_ratio {a['failed']}/{a['attempted']} -> "
                         f"{b['failed']}/{b['attempted']}")
        lines.append(f"{name}: " + " | ".join(cells))
    return lines, ok
