"""Scale invariance: per-event work and per-rank memory are O(touched).

PR 9's contract: no per-rank or per-pair structure in the runtime may
be sized by the *total* rank count — flow-control pools, attention
gates, ω-counter vectors, signal boards all materialize per touched
peer only.  Two angles:

- **touched-driven sizing** — a job where only a few ranks talk must
  leave every lazy table sized by the communicating set, not ``nranks``;
- **memory ceiling** — an (almost) idle 2048-rank runtime stays within
  a flat tracemalloc budget (dense per-pair state would need gigabytes:
  one ``2048x2048`` int64 grid alone is 32 MiB, and the seed code kept
  several per window).

The sparse counter container itself is checked against a dense array,
op for op, in ``tests/simtime/test_sparse.py``.

Plus the opt-in contract of the Fig. 12 scan-cost knob: at the default
``baseline_scan_cost_us = 0.0`` nothing moves, and a positive cost
slows only the baseline engine.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro import LOCK_SHARED
from repro.bench.calibration import default_model
from tests.conftest import make_runtime


def _txn_app(txns):
    """App where rank ``origin % n`` locks/puts/unlocks a rotating peer
    for each transaction; all other ranks only host."""

    def app(proc):
        win = yield from proc.win_allocate(256)
        me, n = proc.rank, proc.size
        data = np.full(8, me + 1, dtype=np.uint8)
        yield from proc.barrier()
        for i, (origin, toff, exclusive) in enumerate(txns):
            if origin % n != me:
                continue
            target = (me + 1 + toff) % n
            if target == me:
                continue
            if exclusive:
                yield from win.lock(target)
            else:
                yield from win.lock(target, LOCK_SHARED)
            win.put(data, target, (i % 4) * 8)
            yield from win.unlock(target)
        yield from proc.barrier()

    return app


# ---------------------------------------------------------------------------
# Touched-driven sizing
# ---------------------------------------------------------------------------
class TestTouchedDrivenSizes:
    def test_small_active_set_in_large_job(self):
        """64 ranks, but only ranks 0-3 communicate: every lazy table is
        sized by the active set (plus collective traffic), never by the
        rank count."""
        def app(proc):
            win = yield from proc.win_allocate(256)
            me = proc.rank
            yield from proc.barrier()
            if me < 4:
                target = (me + 1) % 4
                data = np.full(8, me + 1, dtype=np.uint8)
                for _ in range(3):
                    yield from win.lock(target, LOCK_SHARED)
                    win.put(data, target, 0)
                    yield from win.unlock(target)
            yield from proc.barrier()

        pools = {}
        for n in (32, 64):
            rt = make_runtime(n, "nonblocking", model=default_model())
            rt.run(app)
            pools[n] = len(rt.fabric.flow._pools)

            # Attention gates exist only where attention-needing control
            # packets landed: the four lock targets.
            assert len(rt.fabric.attention) <= 4

            # The board materialized entries only for actual peers: the
            # ω rows a (expected), g and done_id (both inbound).
            for rank, engine in enumerate(rt.engines):
                for ws in engine.states.values():
                    budget = 3 if rank < 4 else 0
                    assert ws.board.expected.touched() <= budget
                    assert ws.board.inbound.touched() <= budget

        # Flow-control pools cover the active pairs plus the collective
        # (barrier / allocate) traffic: linear in n — doubling the job
        # must not quadruple the pool count the way a pair grid would.
        assert pools[64] < 8 * 64
        assert pools[64] <= 2.5 * pools[32]

    def test_signal_board_touched_peers_only(self):
        """The signal engine's per-window board materializes (channel,
        peer) slots for signalled peers only."""
        n = 32
        txns = [(0, 0, False), (1, 0, False), (0, 1, True)]
        rt = make_runtime(n, "signal", model=default_model())
        rt.run(_txn_app(txns))
        for engine in rt.engines:
            for ws in engine.states.values():
                # 6 channels x 32 ranks dense would be 192 slots each.
                assert ws.board.outbound.touched() <= 12
                assert ws.board.inbound.touched() <= 12
                assert ws.board.expected.touched() <= 12


# ---------------------------------------------------------------------------
# Idle-runtime memory ceiling
# ---------------------------------------------------------------------------
class TestMemoryCeiling:
    def test_idle_2048_rank_runtime_stays_flat(self):
        """Constructing and running an (almost) idle 2048-rank job stays
        under a flat ceiling.  The seed's dense per-pair state would
        blow through this by an order of magnitude: a single dense
        nranks² credit grid is 2048² pointers ≈ 32 MiB, and each
        window's dense ω vectors add 4 x 16 KiB x 2048 ranks more."""
        n = 2048

        def app(proc):
            win = yield from proc.win_allocate(64)
            yield from proc.barrier()
            if proc.rank == 0:
                yield from win.lock(1, LOCK_SHARED)
                win.put(np.ones(8, dtype=np.uint8), 1, 0)
                yield from win.unlock(1)
            yield from proc.barrier()

        tracemalloc.start()
        try:
            rt = make_runtime(n, "nonblocking", model=default_model())
            rt.run(app)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Generous flat budget: O(nranks) bookkeeping (processes,
        # engines, ports) is allowed; O(nranks²) or dense-per-window
        # state is not.
        assert peak < 512 * 1024 * 1024
        # The one lock/put pair materialized O(1) sparse state.
        assert len(rt.fabric.attention) <= 1
        ws0 = next(iter(rt.engines[0].states.values()))
        assert ws0.board.expected.touched() <= 1


# ---------------------------------------------------------------------------
# Fig. 12 scan-cost knob: strictly opt-in
# ---------------------------------------------------------------------------
def _locked_virtual_time(engine: str, scan_cost_us: float) -> float:
    txns = [(0, 0, True), (1, 1, False), (2, 0, True), (0, 2, False)]
    model = default_model().with_overrides(baseline_scan_cost_us=scan_cost_us)
    rt = make_runtime(4, engine, model=model)
    rt.run(_txn_app(txns))
    return rt.now


class TestBaselineScanCost:
    def test_default_model_has_zero_scan_cost(self):
        assert default_model().baseline_scan_cost_us == 0.0

    def test_positive_cost_slows_only_the_baseline(self):
        assert _locked_virtual_time("mvapich", 2.0) > _locked_virtual_time(
            "mvapich", 0.0
        )
        for engine in ("nonblocking", "signal"):
            assert _locked_virtual_time(engine, 2.0) == _locked_virtual_time(
                engine, 0.0
            )

    def test_zero_cost_is_exact_noop_for_baseline(self):
        assert _locked_virtual_time("mvapich", 0.0) == _locked_virtual_time(
            "mvapich", 0.0
        )
