"""``python3 -m perf`` — run from the repository root.

Two ways in:

- ``--workload NAME --seed N --seconds S --trace 0|1`` measures one
  workload in this process and prints one JSON result as the last line
  (the form ``BENCHMARK.json``'s driver uses);
- without ``--workload`` it runs the whole ledger — every workload in a
  fresh interpreter, the end-to-end pass and then the traced pass —
  prints every metric by name and writes the JSON document.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
#: ``--quick``: timed reps per workload.
QUICK_REPS = 2


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("the seed must not be negative")
    return seed


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="python3 -m perf", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", help="measure this one workload in-process")
    p.add_argument("--seed", type=_seed, help="feeds every workload's input generation")
    p.add_argument("--seconds", type=float,
                   help="the time the timed reps should fill (at least 5 reps run)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="with --workload: 0 = end-to-end run, 1 = traced run")
    p.add_argument("--reps", type=int, help="exactly N timed reps instead of --seconds")
    p.add_argument("--quick", action="store_true",
                   help=f"ledger: the quarter-size *_quick workloads, {QUICK_REPS} reps each")
    p.add_argument("--only", action="append", metavar="WORKLOAD",
                   help="ledger: restrict to this workload (repeatable)")
    p.add_argument("--no-trace", action="store_true", help="ledger: skip the traced pass")
    p.add_argument("--json", type=Path, metavar="PATH", help="ledger: where to write it")
    p.add_argument("--repeat", action="store_true",
                   help="ledger: run twice, the second time in reverse order, and compare")
    p.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"),
                   help="compare two ledger documents under the metrics' bounds")
    p.add_argument("--write-benchmark", action="store_true",
                   help="regenerate BENCHMARK.json from perf/metrics.py and perf/workloads.py")
    p.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _run_one(args, seed: int, seconds: float) -> int:
    from .harness import run_end_to_end, run_traced
    from .ledger import FAILED_OPS_EXIT, format_metrics
    from .metrics import BOUNDED, END_TO_END, PER_LAYER
    from .workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    run, printed, result = ((run_traced, PER_LAYER, PER_LAYER) if args.trace
                            else (run_end_to_end, END_TO_END, BOUNDED))
    doc = run(args.workload, seed, seconds, args.reps)
    rep = doc["rep_summary_s"]
    print(f"{args.workload}: {doc['reps']} reps of {doc['ops']} {doc['op_unit']}s, rep lower "
          f"quartile {rep['lower_quartile']:.4f} cpu s (median {rep['median']:.4f}), failed "
          f"{doc['failed']}/{doc['attempted']}")
    print("\n".join(format_metrics(printed, doc["metrics"])))
    for error in doc["errors"]:
        print(error, file=sys.stderr)
    print(json.dumps({"correct": doc["correct"], "attempted": doc["attempted"],
                      "failed": doc["failed"],
                      "metrics": {m.name: doc["metrics"][m.name] for m in result}}))
    return 0 if doc["correct"] else FAILED_OPS_EXIT


def _run_ledger(args, seed: int, seconds: float) -> int:
    from .compare import compare
    from .harness import OUT_DIR
    from .ledger import format_ledger, run_ledger, write_ledger
    from .workloads import FULL, QUICK, WORKLOADS

    unknown = set(args.only or ()) - set(WORKLOADS)
    if unknown:
        sys.exit(f"unknown workload {sorted(unknown)}; choose from {', '.join(WORKLOADS)}")
    names = args.only or list(QUICK if args.quick else FULL)
    reps = args.reps or (QUICK_REPS if args.quick else None)
    path = args.json or OUT_DIR / "ledger.json"
    doc = run_ledger(names, seed, seconds, reps, trace=not args.no_trace)
    print(format_ledger(doc))
    write_ledger(doc, path)
    print(f"wrote {path}")
    ok = not doc["design_violations"] and not any(
        w["failed"] for w in doc["workloads"].values())
    if args.repeat:
        again = run_ledger(names[::-1], seed, seconds, reps, trace=not args.no_trace)
        print(format_ledger(again))
        second = path.with_suffix(".repeat.json")
        write_ledger(again, second)
        print(f"wrote {second}")
        lines, same = compare(doc, again)
        print("\n".join(lines))
        ok = ok and same and not again["design_violations"]
    return 0 if ok else 1


def _compare(args) -> int:
    from .compare import compare

    before, after = (json.loads(p.read_text()) for p in args.compare)
    lines, ok = compare(before, after)
    print("\n".join(lines))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if args.compare:
        return _compare(args)
    if not (_SRC / "repro").is_dir():
        sys.exit(f"perf measures the program under {_SRC}, which is missing: "
                 "run it from a full checkout")
    # One thread for numpy's BLAS, set before numpy is first imported.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(_SRC))

    from .harness import RUN_SECONDS
    from .spans import Spans
    from .workloads import DEFAULT_SEED, WORKLOADS

    if args.write_benchmark:
        from .ledger import BENCHMARK_PATH, benchmark_document

        BENCHMARK_PATH.write_text(json.dumps(benchmark_document(), indent=2) + "\n")
        return 0
    seed = DEFAULT_SEED if args.seed is None else args.seed
    if args.setup_probe:
        # One set-up probe, in this fresh interpreter: everything above
        # plus building the inputs and constructing the runtime.
        WORKLOADS[args.setup_probe](seed).make_runtime(Spans(args.setup_probe))
        return 0
    seconds = RUN_SECONDS if args.seconds is None else args.seconds
    if args.workload:
        return _run_one(args, seed, seconds)
    from .ledger import ChildCrashed

    try:
        return _run_ledger(args, seed, seconds)
    except ChildCrashed as exc:  # no ledger without every workload: say why
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
