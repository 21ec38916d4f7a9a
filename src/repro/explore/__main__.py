"""CLI for the schedule explorer.

Subcommands::

    python -m repro.explore run [--workloads halo,lu] [--variants new,signal]
        [--schedules 4] [--seed 0x5EED] [--max-extra-us 0.5] [--json]
        [--out report.json]
        Differential sweep: workloads x engine series x (baseline +
        N explored schedules).  --variants restricts the sweep to the
        named series (the values ``replay --variant`` takes).  Exit 1
        if any digest disagrees.

    python -m repro.explore replay --workload W --variant SERIES
        (--seed S | --spec-file f.json) [--expect-strict SHA] [--json]
        Re-run one explored schedule from its replay token and print the
        digest.  With --expect-strict, exit 1 unless the strict SHA
        matches (byte-level determinism check).

    python -m repro.explore shrink --workload W --variant SERIES --seed S
        [--budget 64] [--json]
        Delta-debug a failing seed to a minimal perturbation set.

Everything is replayable: the seed (or the spec JSON printed by
``shrink``) is the complete token.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..workloads import SERIES, get_series, workload_names
from .policy import PerturbationSpec
from .runner import explore, run_workload
from .shrink import shrink


def _int(text: str) -> int:
    return int(text, 0)  # accepts 0x... seeds


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="python -m repro.explore", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)

    run = sub.add_parser("run", help="differential schedule sweep")
    run.add_argument("--workloads", default=None,
                     help=f"comma list from {list(workload_names())} (default: all)")
    run.add_argument("--variants", default=None,
                     help=f"comma list from {[s.name for s in SERIES]} (default: all)")
    run.add_argument("--schedules", type=int, default=4,
                     help="explored schedules per workload/series (default 4)")
    run.add_argument("--seed", type=_int, default=0x5EED, help="base seed")
    run.add_argument("--max-extra-us", type=float, default=0.5,
                     help="per-event extra-delay bound (µs)")
    run.add_argument("--json", action="store_true", help="machine-readable report")
    run.add_argument("--out", default=None, help="also write the JSON report here")

    rep = sub.add_parser("replay", help="re-run one schedule from its token")
    rep.add_argument("--workload", required=True, choices=workload_names())
    rep.add_argument("--variant", required=True, choices=[s.name for s in SERIES])
    rep.add_argument("--seed", type=_int, default=None, help="schedule seed")
    rep.add_argument("--spec-file", default=None,
                     help="replay token JSON (as printed by shrink)")
    rep.add_argument("--max-extra-us", type=float, default=0.5)
    rep.add_argument("--expect-strict", default=None,
                     help="fail unless the strict digest SHA matches")
    rep.add_argument("--json", action="store_true")

    shr = sub.add_parser("shrink", help="minimize a failing seed")
    shr.add_argument("--workload", required=True, choices=workload_names())
    shr.add_argument("--variant", required=True, choices=[s.name for s in SERIES])
    shr.add_argument("--seed", type=_int, required=True)
    shr.add_argument("--max-extra-us", type=float, default=0.5)
    shr.add_argument("--budget", type=int, default=64, help="max oracle re-runs")
    shr.add_argument("--json", action="store_true")
    return p


def _load_spec(args) -> PerturbationSpec:
    if args.spec_file:
        with open(args.spec_file) as fh:
            return PerturbationSpec.from_json(json.load(fh))
    if args.seed is None:
        raise SystemExit("replay needs --seed or --spec-file")
    return PerturbationSpec(seed=args.seed, max_extra_us=args.max_extra_us)


def _select_series(variants_arg: str | None):
    """Resolve ``--variants`` to a series subset in table order (None = all)."""
    if variants_arg is None:
        return SERIES
    try:
        wanted = {get_series(t.strip()) for t in variants_arg.split(",") if t.strip()}
    except ValueError as exc:
        raise SystemExit(f"--variants: {exc}") from None
    if not wanted:
        raise SystemExit(f"--variants named no series; choose from "
                         f"{', '.join(s.name for s in SERIES)}")
    return tuple(s for s in SERIES if s in wanted)


def _cmd_run(args) -> int:
    names = args.workloads.split(",") if args.workloads else None
    series = _select_series(args.variants)
    report = explore(
        workloads=names,
        nschedules=args.schedules,
        base_seed=args.seed,
        max_extra_us=args.max_extra_us,
        series=series,
    )
    doc = report.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
    if args.json:
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        print(f"explored {len(report.runs)} runs "
              f"({len(names or workload_names())} workloads x {len(series)} series "
              f"x {1 + args.schedules} schedules)")
        if report.ok:
            print("all digests agree")
        for m in report.mismatches:
            print(f"MISMATCH [{m['kind']}] {m['workload']}/{m['variant']} "
                  f"seeds={m['seeds']}")
            for path in m["paths"]:
                print(f"    {path}")
    return 0 if report.ok else 1


def _cmd_replay(args) -> int:
    spec = _load_spec(args)
    run = run_workload(args.workload, get_series(args.variant), spec)
    doc = {"run": run.to_json(), "digest": run.digest.to_json()}
    if args.json:
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        print(f"{args.workload}/{args.variant} seed={spec.seed:#x}")
        print(f"strict  {run.digest.strict_sha}")
        print(f"engine  {run.digest.engine_sha}")
    if args.expect_strict is not None and run.digest.strict_sha != args.expect_strict:
        print(f"strict digest mismatch: expected {args.expect_strict}", file=sys.stderr)
        return 1
    return 0


def _cmd_shrink(args) -> int:
    series = get_series(args.variant)
    spec = PerturbationSpec(seed=args.seed, max_extra_us=args.max_extra_us)
    # Oracle: strict digest disagrees with the unperturbed baseline of
    # the reference series (the sweep's own strict rule).
    ref = run_workload(args.workload, SERIES[0], None)

    def fails(candidate: PerturbationSpec) -> bool:
        run = run_workload(args.workload, series, candidate)
        return run.digest.strict_sha != ref.digest.strict_sha

    full = run_workload(args.workload, series, spec)
    if full.digest.strict_sha == ref.digest.strict_sha:
        print(f"seed {args.seed:#x} does not fail on {args.workload}/{args.variant}; "
              "nothing to shrink", file=sys.stderr)
        return 2
    result = shrink(spec, full.applied, fails, budget=args.budget)
    if args.json:
        json.dump(result.to_json(), sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        print(f"shrunk {len(full.applied)} applied perturbations -> "
              f"{len(result.ids)} ({result.tests} oracle runs, "
              f"{'1-minimal' if result.minimal else 'budget-limited'})")
        print("replay token:", json.dumps(result.minimal_spec.to_json()))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    return {"run": _cmd_run, "replay": _cmd_replay, "shrink": _cmd_shrink}[args.cmd](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
