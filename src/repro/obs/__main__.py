"""Observability CLI: ``python -m repro.obs``.

Runs one test-matrix cell (:mod:`repro.workloads`: a workload under an
engine series) with metrics and the causal recorder enabled, then prints
the 7-step / per-epoch report or writes artifacts::

    python -m repro.obs                          # halo on 'new', report to stdout
    python -m repro.obs --workload lu            # another row of the matrix
    python -m repro.obs --series mvapich         # baseline engine profile
    python -m repro.obs --series new-nonblocking # drive the §V i* API
    python -m repro.obs --series signal          # adds the signal-board section
    python -m repro.obs --trace trace.json       # Chrome trace-event JSON
    python -m repro.obs --json metrics.json      # metrics summary as JSON
    python -m repro.obs --validate trace.json    # schema-check an existing trace

The ``critpath`` subcommand runs the same cell with the causal recorder
only, then prints the blocked-time attribution and the critical path
(or the full report as JSON)::

    python -m repro.obs critpath --workload halo --series mvapich
    python -m repro.obs critpath --workload lu --json report.json

All quantities are virtual time, so the JSON is byte-identical across
same-seed runs (CI's ``obs-smoke`` job checks exactly that).

The trace file loads in chrome://tracing or https://ui.perfetto.dev;
``--validate`` runs the same schema check CI applies (job
``bench-smoke``) and exits nonzero on a malformed document.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..workloads import SERIES, run_instrumented, workload_names
from .chrometrace import validate_chrome_trace, write_chrome_trace_file
from .report import format_obs_report


def _cell_parser() -> argparse.ArgumentParser:
    """The run-selection flags both commands share: one matrix cell."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--workload", default="halo", choices=workload_names())
    p.add_argument("--series", default="new", choices=[s.name for s in SERIES],
                   help="engine series (test-matrix column, default 'new')")
    return p


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.obs", parents=[_cell_parser()],
        description="Run one instrumented test-matrix cell and report where time goes.",
    )
    p.add_argument("--trace", metavar="FILE", help="write Chrome trace-event JSON")
    p.add_argument("--json", dest="json_path", metavar="FILE",
                   help="write the metrics summary as JSON ('-' for stdout)")
    p.add_argument("--validate", metavar="FILE",
                   help="schema-check an existing trace file and exit")
    return p


def _build_critpath_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.obs critpath", parents=[_cell_parser()],
        description="Blocked-time attribution + critical path for one "
                    "test-matrix workload.",
    )
    p.add_argument("--json", dest="json_path", metavar="FILE", nargs="?", const="-",
                   help="emit the full report as JSON ('-' or omit FILE for stdout)")
    p.add_argument("--epoch", type=int, default=None,
                   help="walk the critical path of this epoch uid "
                        "(default: the last-completing epoch)")
    return p


def _format_critpath(doc: dict) -> str:
    from .causal import CATEGORIES

    lines = [
        f"== blocked-time attribution ({doc['epochs_completed']} epochs, "
        f"engine {doc['engine']}) ==",
        f"{'category':<14}{'ns':>12}{'share':>9}",
        "-" * 35,
    ]
    active = doc["active_ns_total"] or 1
    for cat in CATEGORIES:
        v = doc["blocked_ns"][cat]
        lines.append(f"{cat:<14}{v:>12d}{v / active:>9.1%}")
    lines.append(f"{'total active':<14}{doc['active_ns_total']:>12d}")
    cp = doc["critical_path"]
    lines += [
        "",
        f"== critical path (epoch {cp['epoch']}, {cp.get('kind', '?')}, "
        f"rank {cp.get('rank', '?')}) ==",
        f"{cp['length']} spans covering {cp['wall_ns']} ns",
    ]
    for cat in sorted(cp["shares_ns"]):
        lines.append(f"  {cat:<12}{cp['shares_ns'][cat]:>12d} ns")
    return "\n".join(lines)


def _critpath_main(argv: list[str]) -> int:
    args = _build_critpath_parser().parse_args(argv)
    from .critpath import critpath_report

    # The report reads only the span graph: no profiler laps.
    runtime = run_instrumented(args.workload, args.series, metrics=False)
    doc = critpath_report(runtime)
    if args.epoch is not None:
        from .critpath import critical_path

        doc["critical_path"] = critical_path(runtime.causal, args.epoch)
    if args.json_path is not None:
        payload = json.dumps(doc, indent=2, sort_keys=True)
        if args.json_path == "-":
            print(payload)
        else:
            with open(args.json_path, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
            print(f"wrote critpath report to {args.json_path}")
    else:
        print(_format_critpath(doc))
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "critpath":
        return _critpath_main(argv[1:])
    args = _build_parser().parse_args(argv)

    if args.validate is not None:
        try:
            with open(args.validate, encoding="utf-8") as fh:
                count = validate_chrome_trace(json.load(fh))
        except (OSError, ValueError) as exc:
            print(f"INVALID {args.validate}: {exc}", file=sys.stderr)
            return 1
        print(f"OK {args.validate}: {count} valid trace events")
        return 0

    runtime = run_instrumented(args.workload, args.series)
    print(format_obs_report(runtime))

    if args.json_path is not None:
        summary = runtime.metrics_summary()
        if args.json_path == "-":
            json.dump(summary, sys.stdout, indent=2)
            print()
        else:
            with open(args.json_path, "w", encoding="utf-8") as fh:
                json.dump(summary, fh, indent=2)
            print(f"\nwrote metrics summary to {args.json_path}")
    if args.trace is not None:
        count = write_chrome_trace_file(args.trace, runtime)
        print(f"wrote {count} trace events to {args.trace} "
              "(open in chrome://tracing or ui.perfetto.dev)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
