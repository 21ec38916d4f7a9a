"""Persistent one-sided collectives vs the two-sided reference.

Every (engine, drive) cell must deliver exactly what the two-sided
:mod:`repro.mpi.collectives` implementations deliver, over ragged
counts matrices (zero-length blocks and single-rank jobs included),
and a plan re-executed N times must equal N single-shot
plans.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MPIRuntime
from repro.coll import (
    plan_allgather,
    plan_allreduce,
    plan_alltoallv,
)
from repro.mpi import collectives
from repro.mpi.errors import RmaUsageError, UnsupportedOperation
from repro.simtime.errors import ProcessFailed

_I8 = np.int64

#: Every (engine, nonblocking-drive) cell, with the epoch style the
#: engine picks: fence on a blocking-only engine, PSCW on one with the
#: §V API, notify on one with notified access.  The nonblocking drive
#: needs ``supports_nonblocking``.
CELLS = [
    ("mvapich", "fence", False),
    ("nonblocking", "pscw", False),
    ("nonblocking", "pscw", True),
    ("signal", "notify", False),
    ("signal", "notify", True),
]


def _block(rank: int, dst: int, k: int, count: int) -> np.ndarray:
    return np.arange(count, dtype=_I8) + 1000 * rank + 100 * dst + 10 * k


def _run_alltoallv(engine, style, nonblocking, counts, invocations=3):
    """One runtime: persistent plan re-executed ``invocations`` times,
    cross-checked in-app against the two-sided reference per round."""
    n = len(counts)

    def app(proc):
        a2a = yield from plan_alltoallv(proc, counts, nonblocking=nonblocking)
        assert a2a.style == style
        rounds = []
        for k in range(invocations):
            send = [_block(proc.rank, j, k, counts[proc.rank][j])
                    for j in range(n)]
            a2a.start(send)
            got = yield from a2a.wait()
            ref = yield from collectives.alltoallv(proc, send, counts)
            for src in range(n):
                np.testing.assert_array_equal(got[src], ref[src])
            rounds.append([b.copy() for b in got])
        yield from a2a.finish()
        yield from proc.barrier()
        return rounds

    return MPIRuntime(n, engine=engine).run(app)


@pytest.mark.parametrize("engine,style,nonblocking", CELLS)
def test_alltoallv_matches_two_sided(engine, style, nonblocking):
    counts = ((1, 2, 0, 3), (3, 0, 2, 0), (0, 4, 2, 1), (2, 0, 0, 1))
    _run_alltoallv(engine, style, nonblocking, counts)


@pytest.mark.parametrize("engine,style,nonblocking", CELLS)
def test_allgather_allreduce_match_two_sided(engine, style, nonblocking):
    n = 3

    def app(proc):
        ag = yield from plan_allgather(proc, (2, 0, 3), nonblocking=nonblocking)
        assert ag.style == style
        mine = np.arange((2, 0, 3)[proc.rank], dtype=_I8) + 10 * proc.rank
        ag.start(mine)
        gathered = yield from ag.wait()
        ref = yield from collectives.allgather(proc, mine)
        np.testing.assert_array_equal(gathered, ref)
        yield from ag.finish()

        ar = yield from plan_allreduce(proc, 4, op="sum", nonblocking=nonblocking)
        assert ar.style == style
        contrib = np.arange(4, dtype=_I8) * (proc.rank + 1)
        ar.start(contrib)
        reduced = yield from ar.wait()
        ref = yield from collectives.allreduce_sum(proc, contrib)
        np.testing.assert_array_equal(reduced, ref)
        yield from ar.finish()
        yield from proc.barrier()
        return 0

    MPIRuntime(n, engine=engine).run(app)


@pytest.mark.parametrize("op,reducer", [
    ("sum", np.add.reduce), ("max", np.maximum.reduce), ("min", np.minimum.reduce),
])
def test_allreduce_ops(op, reducer):
    n = 3
    contribs = [np.asarray([7 - 3 * r, r * r, -r], dtype=_I8) for r in range(n)]
    expect = reducer(np.stack(contribs), axis=0)

    def app(proc):
        ar = yield from plan_allreduce(proc, 3, op=op)
        ar.start(contribs[proc.rank])
        reduced = yield from ar.wait()
        yield from ar.finish()
        yield from proc.barrier()
        return reduced

    for out in MPIRuntime(n, engine="nonblocking").run(app):
        np.testing.assert_array_equal(out, expect)


counts_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(0, 4), min_size=n, max_size=n),
        min_size=n, max_size=n,
    )
)


@given(counts=counts_matrices,
       cell=st.sampled_from(CELLS),
       invocations=st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_alltoallv_property(counts, cell, invocations):
    """Ragged counts — zero-length blocks, zero rows/columns, and
    single-rank jobs — against the two-sided reference."""
    engine, style, nonblocking = cell
    _run_alltoallv(engine, style, nonblocking,
                   tuple(tuple(r) for r in counts), invocations)


@pytest.mark.parametrize("engine,style,nonblocking", CELLS)
def test_persistent_reuse_equals_single_shot(engine, style, nonblocking):
    """N invocations of one plan == N fresh single-shot plans."""
    counts = ((1, 2, 0), (3, 0, 2), (0, 4, 2))
    n, invocations = len(counts), 4

    persistent = _run_alltoallv(engine, style, nonblocking, counts,
                                invocations=invocations)

    def single_shot(k):
        def app(proc):
            a2a = yield from plan_alltoallv(proc, counts, nonblocking=nonblocking)
            send = [_block(proc.rank, j, k, counts[proc.rank][j])
                    for j in range(n)]
            a2a.start(send)
            got = yield from a2a.wait()
            yield from a2a.finish()
            yield from proc.barrier()
            return [b.copy() for b in got]

        return MPIRuntime(n, engine=engine).run(app)

    for k in range(invocations):
        fresh = single_shot(k)
        for rank in range(n):
            for src in range(n):
                np.testing.assert_array_equal(
                    persistent[rank][k][src], fresh[rank][src])


def test_invocation_counter_and_test_polling():
    counts = ((0, 2), (2, 0))

    def app(proc):
        a2a = yield from plan_alltoallv(proc, counts, nonblocking=True)
        for k in range(3):
            a2a.start([_block(proc.rank, j, k, counts[proc.rank][j])
                       for j in range(2)])
            while not a2a.test():
                yield from proc.compute(1.0)
            yield from a2a.wait()
        yield from a2a.finish()
        yield from proc.barrier()
        return a2a.invocations

    assert MPIRuntime(2, engine="nonblocking").run(app) == [3, 3]


# ---------------------------------------------------------------------------
# Drive validation
# ---------------------------------------------------------------------------

def _plan_app(**kwargs):
    def app(proc):
        yield from plan_alltoallv(proc, ((0, 1), (1, 0)), **kwargs)
        yield from proc.barrier()
        return 0

    return app


def test_nonblocking_drive_needs_capability():
    with pytest.raises(ProcessFailed, match="blocking-only engine"):
        MPIRuntime(2, engine="mvapich").run(_plan_app(nonblocking=True))


def test_test_requires_nonblocking_drive():
    def app(proc):
        a2a = yield from plan_alltoallv(proc, ((0, 1), (1, 0)),
                                        nonblocking=False)
        a2a.start([None, np.ones(1, dtype=_I8)] if proc.rank == 0
                  else [np.ones(1, dtype=_I8), None])
        with pytest.raises(UnsupportedOperation):
            a2a.test()
        yield from a2a.wait()
        yield from a2a.finish()
        yield from proc.barrier()
        return 0

    MPIRuntime(2, engine="nonblocking").run(app)


def test_lifecycle_misuse_rejected():
    def app(proc):
        a2a = yield from plan_alltoallv(proc, ((0, 1), (1, 0)))
        with pytest.raises(RmaUsageError, match="without start"):
            yield from a2a.wait()
        send = [None, np.ones(1, dtype=_I8)] if proc.rank == 0 \
            else [np.ones(1, dtype=_I8), None]
        a2a.start(send)
        with pytest.raises(RmaUsageError, match="invocation pending"):
            yield from a2a.finish()
        yield from a2a.wait()
        yield from a2a.finish()
        with pytest.raises(RmaUsageError, match="after finish"):
            a2a.start(send)
        yield from proc.barrier()
        return 0

    MPIRuntime(2, engine="nonblocking").run(app)
