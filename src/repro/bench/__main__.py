"""Standalone figure-table runner: ``python -m repro.bench``.

Regenerates every table in the figure registry
(:mod:`repro.bench.registry`): the §VIII microbenchmark figures
(Figs. 2-11), Fig. 12 (transactions, its credit-starvation mechanism and
the rank-count sweep), Fig. 13 (LU), the §VIII-A latency / overlap
tables, the ablations, the extensions, ``protocol_cost`` and
``coll_overlap``.  Host-time (how fast the simulator itself runs) is
``python3 -m perf``.

Usage (``--help`` lists every flag)::

    python -m repro.bench                    # every registered figure
    python -m repro.bench fig02 fig06 ...    # a subset
    python -m repro.bench --json out.json    # machine-readable rows ('-': stdout)
    python -m repro.bench --check BENCH_seed.json [--diff-out diff.json]
        # regression guard: re-run and compare every value with the
        # baseline doc by equality (virtual time is deterministic)
    python -m repro.bench --scaling [--smoke | --ranks 64,128,256]
                          [--samples 2] [--slope-gate 0.20]
                          [--check BENCH_seed.json]
        # Fig. 12 rank-count sweep: contended fan-in at 64..4096 simulated
        # ranks (--smoke: 64, 256, 1024), 4 series.  Gates: deterministic
        # fields agree across --samples runs; per-event wall cost grows no
        # faster than N^gate; with --check every (series, rank count)
        # throughput cell equals the committed fig12_collapse figure
        # (a subset of its ranks is fine)

Exit codes: 0 ok, 1 drift (or a failed scaling gate), 2 usage error
(including a baseline that is missing, not JSON or not a bench document).

The JSON document carries run metadata plus a list of figure objects,
each with its per-series rows::

    {"meta": {"seed": null, "engines": [...], "fault_plan": null,
              "git_rev": "6dbadd1", "python": "3.12.3"},
     "figures": [
       {"figure": "fig02", "title": "Fig. 2: Late Post", "unit": "µs",
        "columns": ["access_epoch", ...],
        "rows": [{"series": "MVAPICH", "values": {"access_epoch": 12.0, ...}},
                 ...]},
       ...]}

The committed ``BENCH_seed.json`` at the repo root is one such document
(every figure), the baseline the CI ``bench-smoke`` job and regression
hunts diff against.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from ..workloads import SERIES
from .check import baseline_error, compare_docs
from .registry import FIGURES, collect_json, figure_doc, render
from .scaling import (
    RANKS_FULL,
    RANKS_SMOKE,
    collapse_rows,
    format_scaling_report,
    run_scaling,
)


def run_meta() -> dict:
    """Reproducibility metadata for one benchmark document.

    The simulation is a deterministic discrete-event model with no RNG,
    so ``seed`` is ``None`` by construction; it is recorded anyway so
    the schema stays stable if stochastic workloads are ever added.
    ``git_rev`` is best-effort (``None`` outside a git checkout).
    """
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            cwd=Path(__file__).parent,
            timeout=5,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    return {
        "seed": None,
        "engines": [s.label for s in SERIES],
        "fault_plan": None,  # the §VIII microbenchmarks run fault-free
        "git_rev": rev,
        "python": platform.python_version(),
    }


def _write_json(doc: dict, path: str, what: str) -> None:
    if path == "-":
        json.dump(doc, sys.stdout, indent=2)
        print()
    else:
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)
        print(f"wrote {what} to {path}")


def _load_baseline(path: str) -> dict | None:
    """The baseline document at ``path``; ``None`` — after one line on
    stderr — when it is missing, not JSON or not a bench document, so
    the caller exits 2 instead of reporting a traceback as drift."""
    try:
        with open(path) as fh:
            baseline = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read baseline {path}: {exc}", file=sys.stderr)
        return None
    problem = baseline_error(baseline)
    if problem is not None:
        print(f"error: malformed baseline {path}: {problem}", file=sys.stderr)
        return None
    return baseline


def _keep_figures(baseline: dict, keep) -> None:
    """Filter ``baseline`` to the figures named in ``keep``.  The
    comparison itself stays symmetric (see :mod:`repro.bench.check`),
    so a subset run filters here instead."""
    baseline["figures"] = [f for f in baseline["figures"] if f["figure"] in keep]


def _print_drifts(verdict: dict) -> None:
    for d in verdict["drifts"]:
        rel = d["rel_change"]
        how = f"{100 * rel:+.3g}%" if rel is not None else "structural"
        print(f"DRIFT {d['figure']}/{d['series']}/{d['column']}: "
              f"{d['baseline']} -> {d['current']} ({how})")


def check_baseline(baseline: dict, baseline_path: str, named: list[str],
                   diff_out: str | None) -> int:
    """Regression-guard mode: re-run figures, compare them with the
    ``baseline`` document by equality, optionally write the diff
    artifact; returns the process exit code (1 = drift).

    With figures ``named`` on the command line, the baseline is filtered
    to them and every one is run — a named figure the baseline lacks is
    a structural drift, not a skipped check.  With none, the registry
    figures the baseline holds are run, so a full check still flags a
    figure that vanished without re-baselining.
    """
    if named:
        _keep_figures(baseline, named)
    known = {f["figure"] for f in baseline["figures"]}
    wanted = named or [n for n in sorted(FIGURES) if n in known]
    current = {"meta": run_meta(), "figures": collect_json(wanted)}
    verdict = compare_docs(baseline, current)
    verdict["baseline"] = baseline_path
    verdict["baseline_meta"] = baseline.get("meta")
    verdict["current_meta"] = current["meta"]
    if diff_out is not None:
        with open(diff_out, "w") as fh:
            json.dump(verdict, fh, indent=2)
    print(f"checked {verdict['checked']} values against {baseline_path} (exact)")
    if verdict["ok"]:
        print("no drift")
        return 0
    _print_drifts(verdict)
    return 1


def run_scaling_cli(json_path: str | None, baseline: dict | None,
                    check_path: str | None, ranks: tuple[int, ...], samples: int,
                    slope_gate: float) -> int:
    """``--scaling`` mode: run the Fig. 12 rank sweep, print/write the
    report, gate the per-event host-cost slope, and (with ``--check``)
    compare the throughput cells exactly against the committed
    ``fig12_collapse`` figure.

    Three gates, in order:

    - repeat-run determinism (``--samples`` > 1; enforced inside
      :func:`repro.bench.scaling.run_scaling` — a mismatch raises);
    - the fitted log-log slope of wall µs/event against rank count must
      not exceed ``slope_gate`` (default 0.20) for any series (per-rank
      dense state shows up as a clearly positive slope);
    - against a baseline, the run's cells are the ``fig12_collapse``
      figure over the run's rank columns, compared by
      :func:`~repro.bench.check.compare_docs` with the committed
      figure filtered to those columns: the rank set may be
      a subset of the committed one (the smoke job), but an unknown
      rank count or series, or a baseline without the figure, drifts.
    """
    doc = {"meta": run_meta(), "scaling": run_scaling(ranks, samples=samples)}
    sc = doc["scaling"]
    if json_path is not None:
        _write_json(doc, json_path, "scaling report")
    else:
        print(format_scaling_report(sc))
    failed = False
    for name, slope in sc["per_event_slope"].items():
        if slope > slope_gate:
            print(f"FAIL: {name}: per-event cost slope {slope:+.3f} exceeds "
                  f"gate {slope_gate:+.3f} (host cost grows with rank count)",
                  file=sys.stderr)
            failed = True
    if baseline is not None:
        fig = replace(FIGURES["fig12_collapse"],
                      columns=tuple(str(n) for n in sc["ranks"]))
        _keep_figures(baseline, {fig.name})
        for base_fig in baseline["figures"]:
            for row in base_fig["rows"]:
                row["values"] = {c: v for c, v in row["values"].items()
                                 if c in fig.columns}
        current = {"figures": [figure_doc(fig, collapse_rows(sc))]}
        verdict = compare_docs(baseline, current)
        print(f"scaling check: {verdict['checked']} cells compared exactly "
              f"against {check_path}")
        _print_drifts(verdict)
        failed = failed or not verdict["ok"]
    if failed:
        return 1
    print(f"scaling ok (max per-event slope "
          f"{sc['max_per_event_slope']:+.3f}, gate {slope_gate:+.3f})")
    return 0


def _rank_list(spec: str) -> tuple[int, ...]:
    try:
        ranks = tuple(int(r) for r in spec.split(",") if r)
        if not ranks or any(r < 2 for r in ranks):
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            "needs integers >= 2 (e.g. 64,256,1024)") from None
    return ranks


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate, export or check the paper's figure tables.")
    p.add_argument("figures", nargs="*", metavar="FIGURE",
                   help=f"figures to run (default: all of {', '.join(FIGURES)})")
    p.add_argument("--json", metavar="PATH", help="write JSON ('-' for stdout)")
    p.add_argument("--check", metavar="BASELINE",
                   help="compare the run with a baseline JSON exactly; exit 1 on drift")
    p.add_argument("--diff-out", metavar="PATH", help="write the --check verdict")
    p.add_argument("--scaling", action="store_true",
                   help="Fig. 12 rank-count sweep with host-cost slope gate")
    p.add_argument("--smoke", action="store_true",
                   help="--scaling: the CI rank subset (64, 256, 1024)")
    p.add_argument("--ranks", type=_rank_list, metavar="N,N,...",
                   help="--scaling: explicit rank counts")
    p.add_argument("--samples", type=int, default=1,
                   help="--scaling: runs per cell (deterministic fields must agree)")
    p.add_argument("--slope-gate", type=float, default=0.20,
                   help="--scaling: ceiling on the per-event cost slope")
    return p


def main(argv: list[str]) -> int:
    parser = _parser()
    try:
        args = parser.parse_intermixed_args(argv)
        unknown = [w for w in args.figures if w not in FIGURES]
        if unknown:
            parser.error(f"unknown figures: {unknown}; available: {sorted(FIGURES)}")
        if args.samples < 1:
            parser.error("--samples must be >= 1")
        if args.scaling and args.figures:
            parser.error("--scaling takes no figure names")
        if not args.scaling and (args.smoke or args.ranks is not None):
            parser.error("--smoke/--ranks only apply to --scaling")
    except SystemExit as exc:  # argparse exits; main() returns the code
        return exc.code
    baseline = None
    if args.check is not None:  # read before any figure runs
        baseline = _load_baseline(args.check)
        if baseline is None:
            return 2
    if args.scaling:
        ranks = args.ranks or (RANKS_SMOKE if args.smoke else RANKS_FULL)
        return run_scaling_cli(args.json, baseline, args.check, ranks, args.samples,
                               args.slope_gate)
    if baseline is not None:
        return check_baseline(baseline, args.check, args.figures, args.diff_out)
    wanted = args.figures or sorted(FIGURES)
    if args.json is not None:
        figs = collect_json(wanted)
        _write_json({"meta": run_meta(), "figures": figs}, args.json,
                    f"{sum(len(f['rows']) for f in figs)} series rows "
                    f"({len(figs)} figures)")
        return 0
    for name in wanted:
        print(render(FIGURES[name]))
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
