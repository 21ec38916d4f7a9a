"""Performance ledger for the simulated MPI RMA runtime.

Six named workloads (each also at a quarter of its size), five
end-to-end metrics and a per-layer traced run, all measured from outside
the program through its public API.  ``python3 -m perf`` is the one
command; see ``perf/README.md``.

Two clocks, and every number says which one it uses: *host* (how fast
the simulator runs — noisy, bounded) and *virtual* (what the paper
reports — deterministic, compared exactly).
"""
