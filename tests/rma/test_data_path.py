"""The data path of one RMA op inside a lock epoch, on all four engines.

``TABLE`` pins what one op of each kind costs and leaves behind: the
epoch's virtual time, the kernel events and fabric messages and bytes
of the whole run, the origin's result and the target memory's sum.  No
registry workload, app or ``perf/`` workload calls ``fetch_and_op`` or
``compare_and_swap``, so this table is the only reference that sees
their wire path.  Print it afresh with ``PYTHONPATH=src python -m
tests.rma.test_data_path``.

The route test holds the rule that an op is in ``ws.ops_by_uid``
exactly while a packet for it is still to come back: after ``unlock``
no route is left, and a checker-armed ``win_free`` passes.
"""

import numpy as np
import pytest

from tests.conftest import make_runtime

ENGINES = ("nonblocking", "mvapich", "signal", "adaptive")
KINDS = ("put", "get", "accumulate", "get_accumulate", "fetch_and_op",
         "compare_and_swap", "rput", "rget", "raccumulate", "rget_accumulate")
#: Below and above the 8 KiB accumulate rendezvous threshold.
SIZES = (64, 16 * 1024)


def _issue(win, kind, n):
    """Issue one ``kind`` op from rank 0 to rank 1, whose window of ``n``
    int64 holds ``arange(n)``; returns ``(request or None, result or None)``.
    Bulk ops cover the whole window, atomics its last element."""
    data = np.arange(n, dtype=np.int64) * 3 + 1000
    if kind in ("put", "rput", "accumulate", "raccumulate"):
        return getattr(win, kind)(data, 1, 0), None
    if kind in ("get", "rget"):
        result = np.zeros(n, dtype=np.int64)
        return getattr(win, kind)(result, 1, 0), result
    if kind in ("get_accumulate", "rget_accumulate"):
        result = np.zeros(n, dtype=np.int64)
        return getattr(win, kind)(data, result, 1, 0), result
    result = np.zeros(1, dtype=np.int64)
    if kind == "fetch_and_op":
        win.fetch_and_op(np.int64([5]), result, 1, (n - 1) * 8)
    else:
        win.compare_and_swap(np.int64([n - 1]), np.int64([-7]), result, 1, (n - 1) * 8)
    return None, result


def _run(engine, kind, nbytes, info=None, probe=None):
    """One lock epoch holding one op; returns the table row.  ``probe(win)``
    runs on rank 0 right after ``unlock``; then both ranks free the window."""
    n = nbytes // 8
    out = {}

    def origin(proc):
        win = yield from proc.win_allocate(nbytes, info=info)
        yield from proc.barrier()
        t0 = proc.wtime()
        yield from win.lock(1)
        req, result = _issue(win, kind, n)
        if req is not None:
            yield from req.wait()
        yield from win.unlock(1)
        out["epoch_us"] = proc.wtime() - t0
        out["result"] = None if result is None else int(result.sum())
        if probe is not None:
            probe(win)
        yield from proc.barrier()
        yield from proc.win_free(win)

    def target(proc):
        win = yield from proc.win_allocate(nbytes, info=info)
        win.view(np.int64)[:] = np.arange(n, dtype=np.int64)
        yield from proc.barrier()
        yield from proc.barrier()
        out["target_sum"] = int(win.view(np.int64).sum())
        yield from proc.win_free(win)

    rt = make_runtime(2, engine)
    rt.run_mixed({0: origin, 1: target})
    return (out["epoch_us"], rt.sim.events_scheduled, rt.fabric.messages_sent,
            rt.fabric.bytes_sent, out["result"], out["target_sum"])


# (engine, kind, nbytes): (epoch_us, events, messages, bytes, result, target_sum)
TABLE = {
    ('nonblocking', 'put', 64): (11.186411290322583, 68, 13, 840, None, 8084),
    ('nonblocking', 'put', 16384): (16.76967741935484, 68, 13, 17160, None, 8336384),
    ('nonblocking', 'get', 64): (12.705806451612904, 70, 14, 904, 28, 28),
    ('nonblocking', 'get', 16384): (17.97032258064516, 70, 14, 17224, 2096128, 2096128),
    ('nonblocking', 'accumulate', 64): (11.186411290322583, 68, 13, 840, None, 8112),
    ('nonblocking', 'accumulate', 16384): (21.110967741935486, 75, 15, 17288, None, 10432512),
    ('nonblocking', 'get_accumulate', 64): (13.207056451612903, 70, 14, 904, 28, 8112),
    ('nonblocking', 'get_accumulate', 16384): (28.396129032258067, 77, 16, 33672, 2096128, 10432512),
    ('nonblocking', 'fetch_and_op', 64): (12.910967741935483, 71, 14, 920, 7, 33),
    ('nonblocking', 'fetch_and_op', 16384): (12.910967741935483, 71, 14, 920, 2047, 2096133),
    ('nonblocking', 'compare_and_swap', 64): (12.913548387096771, 71, 14, 928, 7, 14),
    ('nonblocking', 'compare_and_swap', 16384): (12.913548387096771, 71, 14, 928, 2047, 2094074),
    ('nonblocking', 'rput', 64): (11.186411290322583, 69, 13, 840, None, 8084),
    ('nonblocking', 'rput', 16384): (16.76967741935484, 69, 13, 17160, None, 8336384),
    ('nonblocking', 'rget', 64): (12.705806451612904, 71, 14, 904, 28, 28),
    ('nonblocking', 'rget', 16384): (17.97032258064516, 71, 14, 17224, 2096128, 2096128),
    ('nonblocking', 'raccumulate', 64): (11.186411290322583, 69, 13, 840, None, 8112),
    ('nonblocking', 'raccumulate', 16384): (21.110967741935486, 76, 15, 17288, None, 10432512),
    ('nonblocking', 'rget_accumulate', 64): (13.207056451612903, 71, 14, 904, 28, 8112),
    ('nonblocking', 'rget_accumulate', 16384): (28.396129032258067, 78, 16, 33672, 2096128, 10432512),
    ('mvapich', 'put', 64): (11.186411290322583, 68, 13, 840, None, 8084),
    ('mvapich', 'put', 16384): (16.76967741935484, 68, 13, 17160, None, 8336384),
    ('mvapich', 'get', 64): (12.705806451612904, 70, 14, 904, 28, 28),
    ('mvapich', 'get', 16384): (17.97032258064516, 70, 14, 17224, 2096128, 2096128),
    ('mvapich', 'accumulate', 64): (11.186411290322583, 68, 13, 840, None, 8112),
    ('mvapich', 'accumulate', 16384): (21.110967741935486, 75, 15, 17288, None, 10432512),
    ('mvapich', 'get_accumulate', 64): (13.207056451612903, 70, 14, 904, 28, 8112),
    ('mvapich', 'get_accumulate', 16384): (28.396129032258067, 77, 16, 33672, 2096128, 10432512),
    ('mvapich', 'fetch_and_op', 64): (12.910967741935483, 71, 14, 920, 7, 33),
    ('mvapich', 'fetch_and_op', 16384): (12.910967741935483, 71, 14, 920, 2047, 2096133),
    ('mvapich', 'compare_and_swap', 64): (12.913548387096771, 71, 14, 928, 7, 14),
    ('mvapich', 'compare_and_swap', 16384): (12.913548387096771, 71, 14, 928, 2047, 2094074),
    ('mvapich', 'rput', 64): (11.186411290322583, 69, 13, 840, None, 8084),
    ('mvapich', 'rput', 16384): (16.76967741935484, 69, 13, 17160, None, 8336384),
    ('mvapich', 'rget', 64): (12.705806451612904, 71, 14, 904, 28, 28),
    ('mvapich', 'rget', 16384): (17.97032258064516, 71, 14, 17224, 2096128, 2096128),
    ('mvapich', 'raccumulate', 64): (11.186411290322583, 69, 13, 840, None, 8112),
    ('mvapich', 'raccumulate', 16384): (21.110967741935486, 76, 15, 17288, None, 10432512),
    ('mvapich', 'rget_accumulate', 64): (13.207056451612903, 71, 14, 904, 28, 8112),
    ('mvapich', 'rget_accumulate', 16384): (28.396129032258067, 78, 16, 33672, 2096128, 10432512),
    ('signal', 'put', 64): (11.186411290322583, 68, 13, 840, None, 8084),
    ('signal', 'put', 16384): (16.76967741935484, 68, 13, 17160, None, 8336384),
    ('signal', 'get', 64): (12.705806451612904, 70, 14, 904, 28, 28),
    ('signal', 'get', 16384): (17.97032258064516, 70, 14, 17224, 2096128, 2096128),
    ('signal', 'accumulate', 64): (11.186411290322583, 68, 13, 840, None, 8112),
    ('signal', 'accumulate', 16384): (21.110967741935486, 75, 15, 17288, None, 10432512),
    ('signal', 'get_accumulate', 64): (13.207056451612903, 70, 14, 904, 28, 8112),
    ('signal', 'get_accumulate', 16384): (28.396129032258067, 77, 16, 33672, 2096128, 10432512),
    ('signal', 'fetch_and_op', 64): (12.910967741935483, 71, 14, 920, 7, 33),
    ('signal', 'fetch_and_op', 16384): (12.910967741935483, 71, 14, 920, 2047, 2096133),
    ('signal', 'compare_and_swap', 64): (12.913548387096771, 71, 14, 928, 7, 14),
    ('signal', 'compare_and_swap', 16384): (12.913548387096771, 71, 14, 928, 2047, 2094074),
    ('signal', 'rput', 64): (11.186411290322583, 69, 13, 840, None, 8084),
    ('signal', 'rput', 16384): (16.76967741935484, 69, 13, 17160, None, 8336384),
    ('signal', 'rget', 64): (12.705806451612904, 71, 14, 904, 28, 28),
    ('signal', 'rget', 16384): (17.97032258064516, 71, 14, 17224, 2096128, 2096128),
    ('signal', 'raccumulate', 64): (11.186411290322583, 69, 13, 840, None, 8112),
    ('signal', 'raccumulate', 16384): (21.110967741935486, 76, 15, 17288, None, 10432512),
    ('signal', 'rget_accumulate', 64): (13.207056451612903, 71, 14, 904, 28, 8112),
    ('signal', 'rget_accumulate', 16384): (28.396129032258067, 78, 16, 33672, 2096128, 10432512),
    ('adaptive', 'put', 64): (11.186411290322583, 68, 13, 840, None, 8084),
    ('adaptive', 'put', 16384): (16.76967741935484, 68, 13, 17160, None, 8336384),
    ('adaptive', 'get', 64): (12.705806451612904, 70, 14, 904, 28, 28),
    ('adaptive', 'get', 16384): (17.97032258064516, 70, 14, 17224, 2096128, 2096128),
    ('adaptive', 'accumulate', 64): (11.186411290322583, 68, 13, 840, None, 8112),
    ('adaptive', 'accumulate', 16384): (21.110967741935486, 75, 15, 17288, None, 10432512),
    ('adaptive', 'get_accumulate', 64): (13.207056451612903, 70, 14, 904, 28, 8112),
    ('adaptive', 'get_accumulate', 16384): (28.396129032258067, 77, 16, 33672, 2096128, 10432512),
    ('adaptive', 'fetch_and_op', 64): (12.910967741935483, 71, 14, 920, 7, 33),
    ('adaptive', 'fetch_and_op', 16384): (12.910967741935483, 71, 14, 920, 2047, 2096133),
    ('adaptive', 'compare_and_swap', 64): (12.913548387096771, 71, 14, 928, 7, 14),
    ('adaptive', 'compare_and_swap', 16384): (12.913548387096771, 71, 14, 928, 2047, 2094074),
    ('adaptive', 'rput', 64): (11.186411290322583, 69, 13, 840, None, 8084),
    ('adaptive', 'rput', 16384): (16.76967741935484, 69, 13, 17160, None, 8336384),
    ('adaptive', 'rget', 64): (12.705806451612904, 71, 14, 904, 28, 28),
    ('adaptive', 'rget', 16384): (17.97032258064516, 71, 14, 17224, 2096128, 2096128),
    ('adaptive', 'raccumulate', 64): (11.186411290322583, 69, 13, 840, None, 8112),
    ('adaptive', 'raccumulate', 16384): (21.110967741935486, 76, 15, 17288, None, 10432512),
    ('adaptive', 'rget_accumulate', 64): (13.207056451612903, 71, 14, 904, 28, 8112),
    ('adaptive', 'rget_accumulate', 16384): (28.396129032258067, 78, 16, 33672, 2096128, 10432512),
}


@pytest.mark.parametrize("nbytes", SIZES)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("engine", ENGINES)
def test_op_table(engine, kind, nbytes):
    assert _run(engine, kind, nbytes) == TABLE[engine, kind, nbytes]


@pytest.mark.parametrize("nbytes", SIZES)
@pytest.mark.parametrize("kind", ("accumulate", "raccumulate",
                                  "get_accumulate", "rget_accumulate"))
@pytest.mark.parametrize("engine", ENGINES)
def test_no_route_outlives_its_op(engine, kind, nbytes):
    routes = []
    _run(engine, kind, nbytes, info={"repro.semantics_check": 1},
         probe=lambda win: routes.append(dict(win._state.ops_by_uid)))
    assert routes == [{}]


if __name__ == "__main__":
    for e in ENGINES:
        for k in KINDS:
            for s in SIZES:
                print(f"    {(e, k, s)!r}: {_run(e, k, s)!r},")
