#!/usr/bin/env python
"""Inefficiency-pattern analysis of an RMA workload (§III).

Runs a deliberately sloppy workload — late posts, delayed completes, a
held lock — with the causal recorder armed, then runs the pattern
detector on its span graph and prints the report, first for blocking
synchronizations and then for the nonblocking API, showing the patterns
disappear.  Each run's timeline, with the patterns overlaid, is written
as a Chrome trace-event file in the temporary directory (validate one
with ``python -m repro.obs --validate FILE``).

Run:  python examples/pattern_analysis.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import MPIRuntime
from repro.obs import write_chrome_trace_file
from repro.patterns import detect_patterns, format_report

MB = 1 << 20


def build_workload(nonblocking: bool):
    def origin(proc):  # rank 0: puts with a delayed close, then a lock
        win = yield from proc.win_allocate(2 * MB)
        yield from proc.barrier()
        # GATS epoch toward a late-posting target.
        if nonblocking:
            win.istart([1])
            win.put(np.zeros(MB, dtype=np.uint8), 1, 0)
            req = win.icomplete()
            yield from proc.compute(1000.0)  # overlapped work
            yield from req.wait()
        else:
            yield from win.start([1])
            win.put(np.zeros(MB, dtype=np.uint8), 1, 0)
            yield from proc.compute(1000.0)  # Late Complete!
            yield from win.complete()
        # Exclusive lock held across work.
        if nonblocking:
            win.ilock(2)
            win.put(np.zeros(MB, dtype=np.uint8), 2, 0)
            req = win.iunlock(2)
            yield from proc.compute(500.0)
            yield from req.wait()
        else:
            yield from win.lock(2)
            win.put(np.zeros(MB, dtype=np.uint8), 2, 0)
            yield from proc.compute(500.0)  # Late Unlock for rank 3!
            yield from win.unlock(2)
        yield from proc.barrier()

    def late_target(proc):  # rank 1: posts its exposure 400 µs late
        win = yield from proc.win_allocate(2 * MB)
        yield from proc.barrier()
        yield from proc.compute(400.0)
        yield from win.post([0])
        yield from win.wait_epoch()
        yield from proc.barrier()

    def lock_host(proc):  # rank 2: passive
        _win = yield from proc.win_allocate(2 * MB)
        yield from proc.barrier()
        yield from proc.barrier()

    def second_requester(proc):  # rank 3: wants rank 2's lock too
        win = yield from proc.win_allocate(2 * MB)
        yield from proc.barrier()
        yield from proc.compute(1300.0)  # request after rank 0 holds
        yield from win.lock(2)
        win.put(np.zeros(MB, dtype=np.uint8), 2, MB)
        yield from win.unlock(2)
        yield from proc.barrier()

    return {0: origin, 1: late_target, 2: lock_host, 3: second_requester}


def analyze(nonblocking: bool, out_dir: Path) -> None:
    label = "NONBLOCKING (§V API)" if nonblocking else "BLOCKING synchronizations"
    runtime = MPIRuntime(4, cores_per_node=1, engine="nonblocking", causal=True)
    runtime.run_mixed(build_workload(nonblocking))
    instances = detect_patterns(runtime.causal, min_duration=5.0)
    print(f"\n=== {label} — job finished at {runtime.now:.0f} µs ===")
    print(format_report(instances))
    # Also export a Chrome-trace timeline with the patterns overlaid.
    out = out_dir / f"rma_trace_{'nonblocking' if nonblocking else 'blocking'}.json"
    count = write_chrome_trace_file(out, runtime, instances)
    print(f"({count} timeline events written to {out} — open in ui.perfetto.dev)")


def main():
    out_dir = Path(tempfile.gettempdir())
    analyze(nonblocking=False, out_dir=out_dir)
    analyze(nonblocking=True, out_dir=out_dir)
    print(
        "\nThe nonblocking epochs eliminate the Late Post / Late Complete /\n"
        "Late Unlock wait time that the blocking run inflicts on its peers\n"
        "(§IV-C), and finish the whole job earlier."
    )


if __name__ == "__main__":
    main()
