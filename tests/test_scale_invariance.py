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
  several per window);
- **state paid for when used** — the per-rank, per-pair, per-epoch and
  per-message records are slotted, an epoch holds only its own kind's
  bookkeeping, every wait queue is ``()`` once drained, and a fan-in run
  stays under a per-rank tracemalloc ceiling.

The counter board itself is checked against dense arrays, op for op,
in ``tests/rma/test_notify.py::test_board_matches_dense_reference``.

Plus the opt-in contract of the Fig. 12 scan-cost knob: at the default
``baseline_scan_cost_us = 0.0`` nothing moves, and a positive cost
slows only the baseline engine.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc
from types import MappingProxyType

import numpy as np
import pytest

from repro import LOCK_SHARED, MODE_NOSUCCEED, MPIRuntime
from repro.bench.calibration import default_model
from repro.mpi import p2p as p2p_module
from repro.mpi.memory import WindowMemory
from repro.mpi.middleware import RankMiddleware
from repro.mpi.p2p import (
    CtsPacket, EagerData, P2PEngine, RecvRequest, RndvData, RtsPacket, SendRequest,
)
from repro.mpi.process import MPIProcess
from repro.mpi.requests import CompletedRequest, Request
from repro.network.flowcontrol import FlowControl
from repro.network.model import NetworkModel
from repro.network import regcache as regcache_module
from repro.network.regcache import RegistrationCache
from repro.network.shmem import NotificationFifo
from repro.rma import packets
from repro.rma.engine.adaptive import AdaptiveEngine
from repro.rma.engine.mvapich import MvapichEngine
from repro.rma.engine.nonblocking import NonblockingEngine
from repro.rma.engine.signal import SignalEngine
from repro.rma.epoch import Epoch, EpochKind
from repro.rma import locks as locks_module
from repro.rma.locks import LockManager, LockWaiter
from repro.rma.requests import ClosingRequest, FlushRequest, OpeningRequest
from repro.rma.state import NO_WAKEUPS, NOTHING, WindowState
from repro.rma.window import Window
from repro.workloads import SERIES, WORKLOADS
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
    def test_small_active_set_in_large_job(self, monkeypatch):
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

        # Pairs that ever had a pool: ``_pools`` holds only the live
        # ones, and idle pools are dropped.
        touched = set()
        probe = FlowControl.pool

        def recording_probe(flow, src, dst):
            touched.add((src, dst))
            return probe(flow, src, dst)

        monkeypatch.setattr(FlowControl, "pool", recording_probe)
        pools = {}
        for n in (32, 64):
            touched.clear()
            rt = make_runtime(n, "nonblocking", model=default_model())
            rt.run(app)
            pools[n] = len(touched)

            # Attention gates exist only where attention-needing control
            # packets landed: the four lock targets.
            assert len(rt.fabric.attention) <= 4

            # The board materialized entries only for actual peers: the
            # ω rows a (expected), g and done_id (both inbound).
            for rank, engine in enumerate(rt.engines):
                for ws in engine.states.values():
                    budget = 3 if rank < 4 else 0
                    assert len(ws.board.expected) <= budget
                    assert len(ws.board.inbound) <= budget

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
                assert len(ws.board.outbound) <= 12
                assert len(ws.board.inbound) <= 12
                assert len(ws.board.expected) <= 12


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
        assert len(ws0.board.expected) <= 1


# ---------------------------------------------------------------------------
# State is paid for when it is used
# ---------------------------------------------------------------------------
#: Every record the simulator keeps per rank, pair, epoch or message.
SLOTTED = (
    NonblockingEngine, MvapichEngine, SignalEngine, AdaptiveEngine, WindowState, Window,
    WindowMemory, LockManager, LockWaiter, NotificationFifo, RankMiddleware, P2PEngine,
    MPIProcess, RegistrationCache, Epoch, Request, CompletedRequest, SendRequest,
    RecvRequest, OpeningRequest, ClosingRequest, FlushRequest, EagerData, RtsPacket,
    CtsPacket, RndvData,
    *(cls for cls in vars(packets).values()
      if isinstance(cls, type) and issubclass(cls, packets.RmaPayload)),
)

#: Per-rank tracemalloc peak of :func:`_fanin_app` at 256 ranks on the
#: baseline engine (CPython 3.11): 23.9 KiB with dict-backed records and
#: per-rank deques, 15.9 KiB with slotted records and first-use queues,
#: 12.7 KiB once idle credit pools are dropped, 10.37 KiB once every
#: per-rank container and a lock epoch's per-target state are paid for
#: when used.  The ceiling leaves 5 % headroom over the last.
FANIN_KIB_PER_RANK = 10.9
#: ``_own_bytes`` of a fresh one-target lock epoch: 1 056 B with three
#: per-target flag containers and eager op maps, 488 B with one stage
#: map and op maps made at the first op; 5 % headroom.
LOCK_EPOCH_BYTES = 512
#: Live credit pools at that run's traced peak, as a multiple of those
#: a fresh pool cannot stand in for: 4.2x with idle pools dropped, 13.5x
#: with every pool kept to the end of the run.
FANIN_LIVE_POOLS_PER_BUSY = 5


def _all_kinds_app(proc):
    """Every epoch kind, a flush and two-sided traffic."""
    win = yield from proc.win_allocate(64)
    me, n = proc.rank, proc.size
    peer = (me + 1) % n
    data = np.full(8, me + 1, dtype=np.uint8)
    yield from win.fence()
    win.put(data, peer, 0)
    yield from win.fence(MODE_NOSUCCEED)
    if me % 2:  # odd ranks access their left neighbour, even ones expose
        yield from win.start((me - 1,))
        win.put(data, me - 1, 8)
        yield from win.complete()
    else:
        yield from win.post((me + 1,))
        yield from win.wait_epoch()
    yield from win.lock(peer, LOCK_SHARED)
    win.put(data, peer, 16)
    yield from win.flush(peer)
    yield from win.unlock(peer)
    yield from win.lock_all()
    win.put(data, peer, 24)
    yield from win.unlock_all()
    yield from proc.send(peer, 8, data=data)
    yield from proc.recv((me - 1) % n, buffer=np.zeros(8, dtype=np.uint8))
    yield from proc.barrier()
    return win


def _fanin_app(rounds=3, hot_div=4):
    """Shared lock/put/unlock rounds toward rotating peers; rank 0 is a
    pure lock server every ``hot_div``-th worker visits once."""

    def app(proc):
        win = yield from proc.win_allocate(256, info={"repro.A_A_A_R": "true"})
        me, n = proc.rank, proc.size
        data = np.zeros(8, dtype=np.uint8)
        if me == 0:
            yield from proc.barrier()
            return 0
        hot = ((me - 1) // hot_div) % rounds if (me - 1) % hot_div == 0 else -1
        for k in range(rounds):
            target = 0 if k == hot else 1 + (me + k * 7) % (n - 1)
            if target == me:
                target = 1 + target % (n - 1)
            yield from win.lock(target, LOCK_SHARED)
            win.put(data, target, 0)
            yield from win.unlock(target)
        yield from proc.barrier()
        return rounds

    return app


def _lazy_containers(rt):
    """``(name, container, its shared empty)`` for every per-rank
    container that exists only while something is in it."""
    out = []
    for mw in rt.middlewares:
        p2p = mw.p2p
        out += [
            ("posted receives", p2p._posted, ()),
            ("unexpected arrivals", p2p._unexpected, ()),
            ("rendezvous sends", p2p._rndv_pending, p2p_module._NO_HANDSHAKES),
            ("rendezvous receives", p2p._rndv_recv, p2p_module._NO_HANDSHAKES),
            ("barrier tokens", p2p.barrier.tokens, ()),
            ("FIFO", mw.fifo._incoming, ()),
        ]
    for gate in rt.fabric.attention:
        out.append(("attention queue", gate._queue, ()))
    for engine in rt.engines:
        for ws in engine.states.values():
            out += [
                ("post_ready", ws.post_ready, NO_WAKEUPS),
                ("advance_ready", ws.advance_ready, NO_WAKEUPS),
                ("lock_epochs", ws.lock_epochs, NOTHING),
                ("ops_by_uid", ws.ops_by_uid, NOTHING),
                ("flushes", ws.flushes, ()),
                ("signal_waits", ws.signal_waits, ()),
                ("lock backlog", ws.lock_backlog, ()),
                ("lock holders", ws.lock_mgr._holders, locks_module._NO_HOLDERS),
                ("lock queue", ws.lock_mgr._queue, ()),
            ]
    return out


def _not_shared_empty(rt) -> list[str]:
    return [name for name, value, empty in _lazy_containers(rt) if value is not empty]


def _own_bytes(ep: Epoch) -> int:
    """The epoch plus the containers it owns (the shared immutable
    empties the other kinds' bookkeeping points at are nobody's)."""
    total = sys.getsizeof(ep)
    for name in Epoch.__slots__:
        value = getattr(ep, name)
        if isinstance(value, (list, dict, set)) or (
                isinstance(value, (tuple, frozenset, MappingProxyType)) and value):
            total += sys.getsizeof(value)
    return total


class TestPaidForWhenUsed:
    def test_record_classes_have_no_instance_dict(self):
        for cls in SLOTTED:
            assert cls.__dictoffset__ == 0, f"{cls.__name__} instances carry a __dict__"

    @pytest.mark.parametrize("engine", ["nonblocking", "mvapich", "signal", "adaptive"])
    def test_live_records_after_a_run_have_no_dict(self, engine):
        rt = make_runtime(4, engine)
        wins = rt.run(_all_kinds_app)
        assert all(isinstance(w, Window) for w in wins)
        gc.collect()
        kinds = set(SLOTTED)
        live = [obj for obj in gc.get_objects() if type(obj) in kinds]
        assert {type(obj) for obj in live} >= {
            type(rt.engines[0]), WindowState, Window, LockManager, RankMiddleware, MPIProcess}
        assert not [obj for obj in live if hasattr(obj, "__dict__")]

    def test_one_target_lock_epoch_is_small(self):
        """3 360 B with a ``__dict__`` and every kind's bookkeeping."""
        ep = Epoch(EpochKind.LOCK, 0, 0, targets=(1,))
        assert _own_bytes(ep) <= LOCK_EPOCH_BYTES

    def test_idle_rank_holds_only_shared_empties(self):
        """After ``win_allocate`` and a barrier nothing waits anywhere:
        no rank pays for a queue, table or ready set."""
        n = 256

        def app(proc):
            yield from proc.win_allocate(64)
            yield from proc.barrier()

        rt = make_runtime(n, "mvapich")
        rt.run(app)
        assert len(_lazy_containers(rt)) >= 15 * n
        assert _not_shared_empty(rt) == []
        assert all(rt.fabric.regcache(r)._entries is regcache_module._NO_REGIONS
                   for r in range(n))

    def test_an_emptied_registration_cache_holds_the_shared_empty(self):
        cache = RegistrationCache(1024, 1.0, 0.0)
        assert cache.pin_cost(0, 64) == 1.0 and cache.pin_cost(0, 64) == 0.0
        assert cache.invalidate(0, 64) and not cache.invalidate(0, 64)
        assert cache._entries is regcache_module._NO_REGIONS and cache.used_bytes == 0
        assert cache.pin_cost(0, 64) == 1.0 and len(cache) == 1

    def test_epoch_holds_only_its_kinds_bookkeeping(self):
        lock = Epoch(EpochKind.LOCK, 0, 0, targets=(1,))
        exposure = Epoch(EpochKind.GATS_EXPOSURE, 0, 0, origin_group=(1,))
        assert lock.lock_stage == {} and lock.exposure_ids == {}
        with pytest.raises(TypeError):
            lock.exposure_ids[1] = 1  # a stray write fails loudly
        with pytest.raises(AttributeError):
            exposure.done_sent.add(1)
        with pytest.raises(AttributeError):
            lock.peer_count = 1  # slotted: no new attributes

    def test_fanin_per_rank_peak(self):
        n = 256
        model = NetworkModel().with_overrides(baseline_scan_cost_us=0.12)
        gc.collect()
        tracemalloc.start()
        try:
            rt = make_runtime(n, "mvapich", model=model)
            assert rt.run(_fanin_app()) == [0] + [3] * (n - 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / n / 1024 <= FANIN_KIB_PER_RANK

    def test_fanin_live_pools_at_the_peak(self):
        n = 256
        model = NetworkModel().with_overrides(baseline_scan_cost_us=0.12)
        samples = []

        def sample():
            now = rt.sim.now
            pools = rt.fabric.flow._pools.values()
            busy = sum(1 for p in pools if p.stall_count or p.available + len(p._returns) <
                       p.capacity or p._returns and p._returns[-1][0] >= now)
            samples.append((tracemalloc.get_traced_memory()[0], len(pools), busy))

        gc.collect()
        tracemalloc.start()
        try:
            rt = make_runtime(n, "mvapich", model=model)
            for i in range(1, 400):  # every 0.25 us across the peak
                rt.sim.schedule(i * 0.25, sample)
            assert rt.run(_fanin_app()) == [0] + [3] * (n - 1)
        finally:
            tracemalloc.stop()
        _, live, busy = max(samples)
        assert live <= FANIN_LIVE_POOLS_PER_BUSY * busy

    @pytest.mark.parametrize("series", SERIES, ids=lambda s: s.name)
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_wait_queues_exist_only_while_something_waits(self, monkeypatch, workload, series):
        runtimes = []
        init = MPIRuntime.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            runtimes.append(self)

        monkeypatch.setattr(MPIRuntime, "__init__", recording_init)
        WORKLOADS[workload].oracle(series.engine, series.nonblocking, None)
        (rt,) = runtimes
        assert _not_shared_empty(rt) == []
        for mw in rt.middlewares:
            assert len(mw.fifo) == 0
        for gate in rt.fabric.attention:
            assert gate.pending == 0
        for engine in rt.engines:
            for ws in engine.states.values():
                assert ws.lock_mgr.queued == [] and ws.lock_mgr.holder_count == 0


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
