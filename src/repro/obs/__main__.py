"""Observability CLI: ``python -m repro.obs``.

Runs a halo-exchange workload with metrics and the causal recorder
enabled, then prints the 7-step / per-epoch report or writes artifacts::

    python -m repro.obs                         # report to stdout
    python -m repro.obs --ranks 8 --iters 20    # bigger run
    python -m repro.obs --engine mvapich        # baseline engine profile
    python -m repro.obs --nonblocking           # drive the §V i* API
    python -m repro.obs --trace trace.json      # Chrome trace-event JSON
    python -m repro.obs --json metrics.json     # metrics summary as JSON
    python -m repro.obs --validate trace.json   # schema-check an existing trace

The ``critpath`` subcommand runs one test-matrix workload under one
engine series with the causal recorder on, then prints the blocked-time
attribution and the critical path (or the full report as JSON)::

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

from ..rma.engine.registry import DEFAULT_ENGINE, ENGINES
from .chrometrace import validate_chrome_trace, write_chrome_trace_file
from .report import format_obs_report


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Run an instrumented halo exchange and report where time goes.",
    )
    p.add_argument("--ranks", type=int, default=4, help="ranks in the job (default 4)")
    p.add_argument("--cells", type=int, default=32, help="cells per rank (default 32)")
    p.add_argument("--iters", type=int, default=8, help="halo iterations (default 8)")
    p.add_argument("--cores-per-node", type=int, default=2,
                   help="ranks per node; >1 exercises the intranode FIFO path (default 2)")
    p.add_argument("--engine", default=DEFAULT_ENGINE, choices=ENGINES)
    p.add_argument("--nonblocking", action="store_true",
                   help="drive the §V MPI_WIN_I* API (nonblocking engine only)")
    p.add_argument("--trace", metavar="FILE", help="write Chrome trace-event JSON")
    p.add_argument("--json", dest="json_path", metavar="FILE",
                   help="write the metrics summary as JSON ('-' for stdout)")
    p.add_argument("--validate", metavar="FILE",
                   help="schema-check an existing trace file and exit")
    return p


def _build_critpath_parser() -> argparse.ArgumentParser:
    from ..workloads import SERIES, workload_names

    p = argparse.ArgumentParser(
        prog="python -m repro.obs critpath",
        description="Blocked-time attribution + critical path for one "
                    "test-matrix workload.",
    )
    p.add_argument("--workload", default="halo", choices=workload_names())
    p.add_argument("--series", default="new", choices=sorted(s.name for s in SERIES),
                   help="engine series (test-matrix column, default 'new')")
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
    from ..workloads import run_instrumented
    from .critpath import critpath_report

    runtime = run_instrumented(args.workload, args.series)
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

    from ..apps.halo import HaloConfig, run_halo

    result = run_halo(
        HaloConfig(
            nranks=args.ranks,
            cells_per_rank=args.cells,
            iterations=args.iters,
            engine=args.engine,
            nonblocking=args.nonblocking,
            cores_per_node=args.cores_per_node,
            metrics=True,
            causal=True,
        )
    )
    runtime = result.runtime
    assert runtime is not None

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
