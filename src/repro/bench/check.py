"""Benchmark regression guard: diff a run against a committed baseline.

Compares two ``python -m repro.bench --json`` documents figure by
figure, series by series, column by column, by **equality**: the
simulation is a deterministic discrete-event model with no RNG, so any
difference means a schedule or the model changed and the baseline must
be regenerated on purpose.  Structural drifts are reported
**symmetrically**: a figure, series or column that disappeared from the
current run *and* one that appeared without being re-baselined are both
drifts — a shape change in either direction means baseline and run are
no longer measuring the same thing.  (Callers that want to tolerate
additions, like the CLI's figure-subset mode, filter the figure set
before comparing.)

``checked`` counts every value examined on either side: values compared
numerically, baseline values whose slot vanished, and current values
with no baseline slot.  Structural mismatches therefore do not
undercount coverage — "checked 57 values" always means 57 slots looked
at, not 57 comparisons that happened to line up.

:func:`baseline_error` is the shape check a document read from disk
passes before it is compared.  The verdict doubles as the CI diff
artifact.
"""

from __future__ import annotations

__all__ = ["baseline_error", "compare_docs"]


def baseline_error(doc: object) -> str | None:
    """Why ``doc`` cannot serve as a baseline document (``None``: it can):
    it must hold a ``figures`` list of objects with a ``figure`` name and
    ``rows`` of ``{"series": ..., "values": {column: number}}``."""
    if not isinstance(doc, dict) or not isinstance(doc.get("figures"), list):
        return "no 'figures' list"
    for fig in doc["figures"]:
        if not isinstance(fig, dict) or not isinstance(fig.get("figure"), str):
            return "a figure object without a 'figure' name"
        rows = fig.get("rows")
        if not isinstance(rows, list) or not all(
            isinstance(r, dict) and isinstance(r.get("series"), str)
            and isinstance(r.get("values"), dict)
            and all(isinstance(v, (int, float)) for v in r["values"].values())
            for r in rows
        ):
            return f"figure {fig['figure']!r} without well-formed 'rows'"
    return None


def _drift(figure: str, series: str, column: str, baseline, current, rel=None) -> dict:
    return {
        "figure": figure,
        "series": series,
        "column": column,
        "baseline": baseline,
        "current": current,
        "rel_change": rel,
    }


def _fig_values(fig: dict) -> int:
    return sum(len(r["values"]) for r in fig["rows"])


def compare_docs(baseline: dict, current: dict) -> dict:
    """Diff two bench JSON documents; returns the guard verdict.

    ``{"ok": bool, "checked": int, "drifts": [...]}`` where each drift
    carries figure/series/column, both values and — as information, the
    verdict is equality — the relative change (``None`` for structural
    drifts and a zero baseline).  Structure is checked in both
    directions; see the module docstring for what ``checked`` counts.
    """
    base_figs = {f["figure"]: f for f in baseline.get("figures", [])}
    cur_figs = {f["figure"]: f for f in current.get("figures", [])}
    drifts: list[dict] = []
    checked = 0

    for name in sorted(base_figs):
        if name not in cur_figs:
            checked += _fig_values(base_figs[name])
            drifts.append(_drift(name, "*", "*", "present", "missing"))
            continue
        base_rows = {r["series"]: r["values"] for r in base_figs[name]["rows"]}
        cur_rows = {r["series"]: r["values"] for r in cur_figs[name]["rows"]}
        for series in sorted(base_rows):
            if series not in cur_rows:
                checked += len(base_rows[series])
                drifts.append(_drift(name, series, "*", "present", "missing"))
                continue
            for column, bval in sorted(base_rows[series].items()):
                checked += 1
                if column not in cur_rows[series]:
                    drifts.append(_drift(name, series, column, bval, "missing"))
                    continue
                b, c = float(bval), float(cur_rows[series][column])
                if b != c:
                    rel = (c - b) / abs(b) if b else None
                    drifts.append(_drift(name, series, column, b, c, rel))
            # Reverse direction: columns the baseline has never seen.
            for column in sorted(set(cur_rows[series]) - set(base_rows[series])):
                checked += 1
                drifts.append(
                    _drift(name, series, column, "missing", cur_rows[series][column]))
        # Reverse direction: series the baseline has never seen.
        for series in sorted(set(cur_rows) - set(base_rows)):
            checked += len(cur_rows[series])
            drifts.append(_drift(name, series, "*", "missing", "present"))

    # Reverse direction: figures the baseline has never seen.
    for name in sorted(set(cur_figs) - set(base_figs)):
        checked += _fig_values(cur_figs[name])
        drifts.append(_drift(name, "*", "*", "missing", "present"))

    return {"ok": not drifts, "checked": checked, "drifts": drifts}
