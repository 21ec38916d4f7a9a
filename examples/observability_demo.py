#!/usr/bin/env python
"""Observability demo: where does a one-sided job's time actually go?

Runs the same small GATS + passive-target workload twice — once on the
baseline blocking engine, once on the paper's nonblocking engine — with
``MPIRuntime(metrics=True, causal=True)``, then prints for each run:

- the §VII-D 7-step progress-engine profile (invocations / work items /
  host wall-clock per step);
- the epoch lifecycle latency table (how long epochs sat deferred
  before activation, and how long they were active);
- the omega-counter matching stats and the other subsystem counters.

Optionally writes a Chrome trace-event file (open in chrome://tracing
or https://ui.perfetto.dev) for the nonblocking run.

Run:  python examples/observability_demo.py [ranks] [iters] [trace.json]
"""

import sys

import numpy as np

from repro import A_A_E_R, MPIRuntime
from repro.obs import format_obs_report, write_chrome_trace_file


def make_app(iters):
    def app(proc):
        # Ranks are origin and target at once: the deferred engine
        # needs the A_A_E_R reorder flag (docs/SEMANTICS.md).
        win = yield from proc.win_allocate(4096, info={A_A_E_R: 1})
        yield from proc.barrier()
        nxt = (proc.rank + 1) % proc.size
        prv = (proc.rank - 1) % proc.size
        for i in range(iters):
            # GATS ring shift: expose to the predecessor, write to the
            # successor, with some overlapped compute in between.
            yield from win.post([prv])
            yield from win.start([nxt])
            win.put(np.int64([proc.rank + i]), nxt, 8 * (i % 16))
            yield from proc.compute(20.0)
            yield from win.complete()
            yield from win.wait_epoch()
            # Passive-target update of a shared counter on rank 0.
            yield from win.lock(0)
            win.accumulate(np.int64([1]), 0, 2048)
            yield from win.unlock(0)
        yield from proc.barrier()
        return int(win.view(np.int64, 2048, 1)[0])

    return app


def main():
    argv = sys.argv[1:]
    ranks = int(argv[0]) if len(argv) > 0 else 4
    iters = int(argv[1]) if len(argv) > 1 else 4
    trace_path = argv[2] if len(argv) > 2 else None

    for engine in ("mvapich", "nonblocking"):
        rt = MPIRuntime(ranks, cores_per_node=2, engine=engine,
                        metrics=True, causal=True)
        counters = rt.run(make_app(iters))
        assert counters[0] == ranks * iters, counters
        banner = f" engine={engine}  ({ranks} ranks, {iters} iters) "
        print(f"{banner:=^72}")
        print(format_obs_report(rt))
        print()

        if engine == "nonblocking" and trace_path:
            count = write_chrome_trace_file(trace_path, rt)
            print(f"wrote {count} trace events to {trace_path} "
                  "(open in chrome://tracing or ui.perfetto.dev)")


if __name__ == "__main__":
    main()
