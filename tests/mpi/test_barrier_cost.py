"""Host-cost guard for the barrier: Python calls per rank-round.

One 64-rank barrier, observers off, profiled with cProfile.  The count
is deterministic for a given interpreter; it reads about 48 calls per
rank-round (the generator-driven barrier, with two requests and two
resumptions per rank-round, read about 89).  The bound below is a
ceiling with headroom for other interpreter versions, not an equality
gate: a change that puts a request or a resumption back on the
barrier's path crosses it.
"""

from __future__ import annotations

import cProfile

from tests.conftest import make_runtime

#: Calls per rank-round, with over 15 % headroom above the measured ~48.
CEILING = 56


def test_barrier_calls_per_rank_round_stay_under_the_ceiling():
    n = 64
    rt = make_runtime(n)

    def app(proc):
        yield from proc.barrier()

    prof = cProfile.Profile()
    prof.enable()
    try:
        rt.run(app)
    finally:
        prof.disable()
    calls = sum(e.callcount for e in prof.getstats())
    per_rank_round = calls / (n * (n - 1).bit_length())
    assert per_rank_round <= CEILING, f"{per_rank_round:.1f} calls per rank-round"
