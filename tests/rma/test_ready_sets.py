"""The per-window ready sets are sound, precise and loud when wrong.

Production sweeps of ``NonblockingEngine`` examine only the epochs and
(epoch, target) pairs whose own predicate inputs moved, and read group
predicates off arrival counts (the wake-up table in docs/PERFORMANCE.md,
"Ready sets and the wake-up table").  The engines in this file exist
only here, each a ``NonblockingEngine`` subclass:

- ``Exhaustive*`` sweep every window at every poke, whatever was
  marked, and never issue an op outside a sweep; every sweep marks every
  live epoch, every one of its targets and every pair due, and recounts
  every arrival, before every step — the historical walk over every
  target of every epoch.  It must be indistinguishable from production
  on every observable of a run but the sweep count — a missed wake-up
  or a missed mark shows as a different virtual time or a deadlock, a
  spurious *order* as a different send log.
- ``Audited*`` check the fixpoint invariant directly after every
  outermost ``poke()`` and every op issued outside a sweep: no epoch
  and no target outside the sets would move if examined, every arrival
  count equals its predicate, and the sets, the dirty worklist and the
  notification FIFO are empty.  They also check that no sweep takes or
  merges a window whose sets are all empty: a window is dirty only
  while it has work.

Each comes in all four registered engines: the redesign itself, the
signal engine, and the MVAPICH baseline with its adaptive variant, whose
gates are arrival counts of their own (``Epoch.ready_from``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.mpi.runtime as runtime_mod
from repro.apps.transactions import TransactionsConfig, run_transactions
from repro.bench.scaling import SCAN_COST_US, contended_fan_in
from repro.explore import ExplorationContext, build_digest
from repro.mpi.info import Info
from repro.network.fabric import Fabric
from repro.network.model import NetworkModel
from repro.rma import MODE_NOCHECK, SEMANTICS_CHECK_INFO_KEY, SEMANTICS_MODE_INFO_KEY
from repro.rma.engine.adaptive import AdaptiveEngine
from repro.rma.engine.mvapich import MvapichEngine
from repro.rma.engine.nonblocking import NonblockingEngine
from repro.rma.engine.registry import canonical_engine
from repro.rma.engine.signal import SignalEngine
from repro.rma.epoch import LOCK_HELD, UNLOCK_ACKED, UNLOCK_SENT, EpochKind
from repro.rma.flags import A_A_A_R, A_A_E_R, E_A_A_R, E_A_E_R
from repro.rma.notify import SignalChannel
from repro.rma.packets import GrantUpdate, UnlockAck
from repro.simtime import SimulationDeadlock
from repro.workloads import get_workload, workload_names
from tests.conftest import make_runtime
from tests.test_chaos_property import ALL_FLAGS_CHECKED, random_accumulate_app


# ---------------------------------------------------------------------------
# Test-only engines
# ---------------------------------------------------------------------------
def _arrivals(engine, ws, ep) -> set[int]:
    """``ep``'s arrival count, recomputed from the protocol's counters."""
    if ep.kind is EpochKind.GATS_EXPOSURE:
        return {o for o in ep.peers if engine._done_arrived(ws, ep, o)}
    if ep.kind is EpochKind.FENCE:
        return {p for p in ws.win.group.ranks if p != engine.rank
                and ws.board.reached(SignalChannel.FENCE_DONE, p, ep.fence_round)}
    return set()


def _gate_arrivals(engine, ws, ep) -> set[int]:
    """A baseline gated epoch's ``ready_from``, recomputed from the
    protocol's counters (the redesign keeps none)."""
    if not isinstance(engine, MvapichEngine):
        return set()
    if ep.kind is EpochKind.GATS_ACCESS:
        return {t for t in ep.targets if engine._access_granted(ws, ep, t)}
    if ep.kind is EpochKind.FENCE:
        return {p for p in ep.targets if p == engine.rank
                or ws.board.reached(SignalChannel.FENCE_OPEN, p, ep.fence_round)}
    return set()


def _internode_waiting(engine, ep) -> int:
    if not isinstance(engine, MvapichEngine) or ep.kind is not EpochKind.GATS_ACCESS:
        return 0
    lo, hi = engine._node_lo, engine._node_hi
    return sum(1 for t in ep.targets if not lo <= t < hi and t not in ep.ready_from)


def _has_work(ws) -> bool:
    return bool(ws.post_ready or ws.advance_ready or ws.activation_pending or ws.lock_backlog)


class _Exhaustive:
    """Every poke sweeps every window (the scan the dirty worklist
    replaced), so a mark production skips cannot hide work; every step
    of every sweep sees every live epoch, target and pair due, and every
    arrival count fresh from its predicate; and an op waits for a sweep."""

    def poke(self):
        self._dirty.update(self.states)
        super().poke()

    def _issue_direct(self, ws, ep, target):
        return False

    def _mark_all(self, ws) -> None:
        for ep in ws.epochs:
            if ep.active:
                self._wake_advance(ws, ep)  # due, every target of it
                ep.done_from = _arrivals(self, ws, ep)
                ep.ready_from = _gate_arrivals(self, ws, ep)
                ep.internode_waiting = _internode_waiting(self, ep)
        ws.activation_pending = True
        self._wake_pairs(ws)

    def _wake_pairs(self, ws) -> None:
        for ep in ws.epochs:
            if ep.active:
                for target in ep.unissued_targets():
                    self._wake_post(ws, ep, target)

    def _take_dirty(self):
        self._dirty.update(self.states)
        dirty = super()._take_dirty()
        for ws in dirty:
            self._mark_all(ws)
        return dirty

    def _merge_marked(self, dirty):
        merged = super()._merge_marked(dirty)
        for ws in merged:
            self._mark_all(ws)
        return merged

    def _complete_and_activate(self, ws):
        total = 0
        while True:  # the old ``while changed`` loop over all of ws.epochs
            self._mark_all(ws)
            progressed = super()._complete_and_activate(ws)
            total += progressed
            if not progressed:
                break
        # The step after this one looked at every pair too.  Only pairs:
        # a pair is due only while ready, and issuing it empties the set,
        # while an epoch or the activation scan left due here would keep
        # the window on the worklist for ever.
        self._wake_pairs(ws)
        return total


class ExhaustiveNonblocking(_Exhaustive, NonblockingEngine):
    pass


class ExhaustiveSignal(_Exhaustive, SignalEngine):
    pass


class ExhaustiveMvapich(_Exhaustive, MvapichEngine):
    pass


class ExhaustiveAdaptive(_Exhaustive, AdaptiveEngine):
    pass


class _Audited:
    """After every outermost poke, whatever is outside the ready sets
    must be at a fixpoint: examining it — every one of its targets —
    sends and completes nothing, and what the counts say is what the
    predicates say."""

    def poke(self):
        outermost = not self._sweeping
        super().poke()
        if outermost:
            self._audit_all()

    def _issue_direct(self, ws, ep, target):
        issued = super()._issue_direct(ws, ep, target)
        if issued:
            self._audit_all()
        return issued

    def _take_dirty(self):
        idle = [gid for gid, ws in self._dirty.items() if not _has_work(ws)]
        assert not idle, f"swept idle windows {idle}"
        return super()._take_dirty()

    def _merge_marked(self, dirty):
        idle = [gid for gid, ws in self._dirty.items() if ws not in dirty and not _has_work(ws)]
        assert not idle, f"merged idle windows {idle}"
        return super()._merge_marked(dirty)

    def _audit_all(self):
        # Outside a poke nothing waits: a set filled without a mark, or a
        # window or notification left behind, is work no sweep will do.
        assert not self._dirty and not self.fifo._incoming, "left dirty"
        for ws in self.states.values():
            assert not _has_work(ws), f"set filled without a mark: window {ws.gid}"
            self._audit(ws)

    def _audit(self, ws):
        due_pairs, due_epochs = set(ws.post_ready), set(ws.advance_ready)
        for ep in list(ws.epochs):
            if not ep.active:
                continue
            for target in ep.unissued_targets():
                if (ep, target) not in due_pairs:
                    assert not self._target_ready(ws, ep, target), (
                        f"missed post wake-up: {ep} -> {target}")
            assert ep.done_from == _arrivals(self, ws, ep), f"miscounted arrivals: {ep}"
            assert ep.ready_from == _gate_arrivals(self, ws, ep), f"miscounted gate: {ep}"
            assert ep.internode_waiting == _internode_waiting(self, ep), f"miscounted gate: {ep}"
            if ep not in due_epochs:
                def sent():
                    return (len(ep.done_sent),
                            sum(stage >= UNLOCK_SENT for stage in ep.lock_stage.values()),
                            ep.fence_done_sent, self.fabric.messages_sent)
                before = sent()
                # Not due means none of its targets is: test them all.
                was_due, ep.due_targets = ep.due_targets, None
                assert not self._advance_epoch(ws, ep), f"missed advance wake-up: {ep}"
                assert sent() == before, f"missed target wake-up: {ep}"
                ep.due_targets = was_due
        if not ws.activation_pending:
            assert self._try_activate(ws) == 0, "missed activation wake-up"


class AuditedNonblocking(_Audited, NonblockingEngine):
    pass


class AuditedSignal(_Audited, SignalEngine):
    pass


class AuditedMvapich(_Audited, MvapichEngine):
    pass


class AuditedAdaptive(_Audited, AdaptiveEngine):
    pass


EXHAUSTIVE = {"nonblocking": ExhaustiveNonblocking, "signal": ExhaustiveSignal,
              "mvapich": ExhaustiveMvapich, "adaptive": ExhaustiveAdaptive}
AUDITED = {"nonblocking": AuditedNonblocking, "signal": AuditedSignal,
           "mvapich": AuditedMvapich, "adaptive": AuditedAdaptive}
#: The blocking-only baseline engines.
BASELINES = ("mvapich", "adaptive")


def _substitute(monkeypatch, classes) -> None:
    """Make ``MPIRuntime`` build ``classes`` for the ready-set engines."""
    real = runtime_mod._engine_factory
    monkeypatch.setattr(
        runtime_mod, "_engine_factory",
        lambda name: classes.get(canonical_engine(name)) or real(name),
    )


# ---------------------------------------------------------------------------
# (a) production == exhaustive walk, on every observable
# ---------------------------------------------------------------------------
FLAG_SETS = {
    "noflags": {},
    "A_A_A_R": {A_A_A_R: 1},
    # §VI-B exempts fence and lock_all neighbours; the activation
    # predicate enforces that itself, so the flags go on every window.
    "allflags": {A_A_A_R: 1, A_A_E_R: 1, E_A_E_R: 1, E_A_A_R: 1},
}


def _observe(monkeypatch, workload, engine, nonblocking, flags, classes=None):
    """Run one registry cell; return everything a run can be told by."""
    with monkeypatch.context() as mp:
        if classes:
            _substitute(mp, classes)
        real_info = runtime_mod.MPIRuntime._apply_exploration_info
        mp.setattr(
            runtime_mod.MPIRuntime, "_apply_exploration_info",
            lambda self, info: real_info(
                self, Info({**dict(info), **{k: str(v) for k, v in flags.items()}})),
        )
        real_send = Fabric.send

        def logged_send(self, src, dst, nbytes, payload, *args, **kwargs):
            self.__dict__.setdefault("sent_log", {}).setdefault(src, []).append(
                (dst, type(payload).__name__, nbytes, self.sim.now))
            return real_send(self, src, dst, nbytes, payload, *args, **kwargs)

        mp.setattr(Fabric, "send", logged_send)
        context = ExplorationContext()
        result = get_workload(workload).oracle(engine, nonblocking, context)
    digest = build_digest(context, result)
    return {
        "now": [rt.now for rt in context.runtimes],
        "events": [rt.sim.events_scheduled for rt in context.runtimes],
        "sweeps": [[e.sweep_count for e in rt.engines] for rt in context.runtimes],
        "strict": digest.strict_sha,
        "engine_only": digest.engine_sha,
        "sends": [rt.fabric.__dict__.get("sent_log", {}) for rt in context.runtimes],
    }


#: (engine, drive) cells; the baselines have no ``MPI_WIN_I*`` drive.
DRIVES = {
    f"{engine}-{'istar' if nonblocking else 'blocking'}": (engine, nonblocking)
    for engine in EXHAUSTIVE for nonblocking in (False, True)
    if not (nonblocking and engine in BASELINES)
}


@pytest.mark.parametrize("flags", FLAG_SETS, ids=list(FLAG_SETS))
@pytest.mark.parametrize("engine,nonblocking", DRIVES.values(), ids=list(DRIVES))
@pytest.mark.parametrize("workload", workload_names())
def test_production_matches_exhaustive_walk(monkeypatch, workload, engine, nonblocking, flags):
    """Equal on every observable; production sweeps at most as often
    (it sweeps only windows with work and issues a lone due op at once)."""
    args = (monkeypatch, workload, engine, nonblocking, FLAG_SETS[flags])
    production = _observe(*args)
    exhaustive = _observe(*args, classes=EXHAUSTIVE)
    for field in production:
        if field != "sweeps":
            assert production[field] == exhaustive[field], field
    for mine, ref in zip(production["sweeps"], exhaustive["sweeps"], strict=True):
        assert all(p <= r for p, r in zip(mine, ref, strict=True)), (mine, ref)


# ---------------------------------------------------------------------------
# (b) the fixpoint invariant, audited after every poke
# ---------------------------------------------------------------------------
@given(
    nranks=st.integers(2, 6),
    updates=st.integers(1, 12),
    seed=st.integers(0, 2**20),
    cores_per_node=st.sampled_from([1, 2, 8]),
    engine=st.sampled_from(list(AUDITED)),
)
@settings(max_examples=20, deadline=None)
def test_nothing_outside_the_sets_would_progress(nranks, updates, seed, cores_per_node, engine):
    """Chaos programs, every reorder flag on, checker in raise mode."""
    with pytest.MonkeyPatch.context() as mp:
        _substitute(mp, AUDITED)
        rt = runtime_mod.MPIRuntime(nranks, cores_per_node=cores_per_node, engine=engine)
    assert isinstance(rt.engines[0], _Audited)
    res = rt.run(random_accumulate_app(updates, seed, info=ALL_FLAGS_CHECKED))
    assert sum(int(t.sum()) for t in res) == updates * sum(1 + r for r in range(nranks))


@pytest.mark.parametrize("engine", list(AUDITED))
@pytest.mark.parametrize("workload", workload_names())
def test_registry_workloads_pass_the_audit(monkeypatch, workload, engine):
    """Fence, GATS, lock_all and collective traffic under the same audit
    (the chaos generator above only writes lock epochs), in every drive
    of the engine.  The idle-window check fails under an unconditional
    mark in ``_op_local`` (a delivery callback that fills nothing) and
    under a sweep end that keeps a window it drained."""
    _substitute(monkeypatch, AUDITED)
    for drive, nonblocking in DRIVES.values():
        if drive != engine:
            continue
        context = ExplorationContext()
        get_workload(workload).oracle(engine, nonblocking, context)
        engines = [e for rt in context.runtimes for e in rt.engines]
        assert engines and all(isinstance(e, _Audited) for e in engines)
        assert sum(e.sweep_count for e in engines) > 0


@pytest.mark.parametrize("engine", BASELINES)
def test_a_lock_taken_by_a_request_op_leaves_no_idle_window(monkeypatch, engine):
    """The baseline takes a NOCHECK lock at the ``rput`` and marks the
    window with the op's pair due: the op is issued by that window's
    sweep, not at once past the worklist, which would leave the window
    dirty with nothing due (the audit after a direct issue fails under
    a direct issue that ignores another dirty window)."""
    _substitute(monkeypatch, AUDITED)

    def app(proc):
        win = yield from proc.win_allocate(64)
        yield from proc.barrier()
        if proc.rank == 0:
            yield from win.lock(1, assert_=MODE_NOCHECK)
            yield from win.rput(np.int64([5]), 1, 0).wait()
            yield from win.unlock(1)
        yield from proc.barrier()
        return int(win.view(np.int64)[0])

    rt = make_runtime(2, engine)
    assert rt.run(app) == [0, 5]
    assert isinstance(rt.engines[0], _Audited)


_HOSTS = (1, 2, 3, 4)
# One step of rank 0's program: ("lock", host, nocheck), ("lock_all",) or
# ("gats", hosts, hosts that get an op, nocheck).
_STEPS = st.one_of(
    st.tuples(st.just("lock"), st.sampled_from(_HOSTS), st.booleans()),
    st.just(("lock_all",)),
    st.lists(st.sampled_from(_HOSTS), min_size=1, max_size=4, unique=True).flatmap(
        lambda hosts: st.tuples(
            st.just("gats"), st.just(tuple(hosts)),
            st.sets(st.sampled_from(hosts)), st.booleans())),
)


def _mixed_origin_app(steps, delays, flags):
    """Rank 0 opens lock / lock_all / GATS access epochs toward ranks
    1..4 back to back, all nonblocking; each host starts after its own
    delay and posts for the GATS epochs that name it, in order.  No
    registry workload mixes kinds toward one host, leaves a GATS target
    without an op, or asserts MODE_NOCHECK.  A NOCHECK start whose host
    posts late is a false assertion: the checker reports it (report
    mode), the engines must still agree on what happens."""
    info = {SEMANTICS_CHECK_INFO_KEY: 1, SEMANTICS_MODE_INFO_KEY: "report", **flags}

    def app(proc):
        win = yield from proc.win_allocate(64, info=info)
        yield from proc.barrier()
        yield from proc.compute(delays[proc.rank])
        reqs = []
        for n, (kind, *args) in enumerate(steps):
            val = np.int64([n + 1])
            if proc.rank != 0:
                if kind == "gats" and proc.rank in args[0]:
                    yield from win.post((0,))
                    yield from win.wait_epoch()
            elif kind == "lock_all":
                win.ilock_all()
                win.accumulate(val, 1, 0)
                win.accumulate(val, 2, 0)
                reqs.append(win.iunlock_all())
            elif kind == "lock":
                host, nocheck = args
                win.ilock(host, assert_=MODE_NOCHECK if nocheck else 0)
                win.accumulate(val, host, 8)
                reqs.append(win.iunlock(host))
            else:
                hosts, with_op, nocheck = args
                win.istart(hosts, MODE_NOCHECK if nocheck else 0)
                for host in hosts:
                    if host in with_op:
                        win.accumulate(val, host, 16)
                reqs.append(win.icomplete())
        yield from proc.waitall(reqs)
        yield from proc.barrier()
        return win.view(np.int64, 0, 3).tolist()
    return app


@given(
    steps=st.lists(_STEPS, min_size=2, max_size=6),
    delays=st.tuples(*[st.sampled_from([0.0, 3.0, 40.0])] * 5),
    flags=st.sampled_from(["A_A_A_R", "allflags"]),
    engine=st.sampled_from(["nonblocking", "signal"]),
    cores_per_node=st.sampled_from([1, 4]),
)
@settings(max_examples=40, deadline=None)
def test_mixed_kinds_toward_one_host_match_the_exhaustive_walk(
        steps, delays, flags, engine, cores_per_node):
    """Epoch kinds share state (ω counts lock and exposure grants in one
    ``g_r``), so a wake-up row can be too narrow only for a mix; a grant
    has a completion half of its own only toward a target without ops;
    a done can precede its exposure only under NOCHECK.  Some of these
    programs hang on any engine; what is asserted is that all three
    engines agree, and that the audit never fires."""
    def outcome(classes):
        with pytest.MonkeyPatch.context() as mp:
            _substitute(mp, classes)
            rt = make_runtime(5, engine, cores_per_node=cores_per_node)
        try:
            return rt.run(_mixed_origin_app(steps, delays, FLAG_SETS[flags])), rt.now
        except SimulationDeadlock:
            return "deadlock"

    production = outcome({})
    assert production == outcome(EXHAUSTIVE)
    assert production == outcome(AUDITED)


# The shared-grant-counter hazard's minimal program, as a seed: two GATS
# accesses toward hosts 1 and 2, then a lock at host 2.  ω folds the lock
# grant into the stream the GATS posts advance
# (``NonblockingEngine.lock_channel`` is GRANT), so once a reorder flag
# activates all three epochs at once an access id handed to one kind is
# satisfied, or starved, by a grant of the other; the signal engine
# keeps LOCK apart and completes.
_HAZARD_STEPS = [("gats", (1, 2), {1, 2}, False)] * 2 + [("lock", 2, False)]
_HAZARD_BYTES = [[0, 0, 0], [0, 0, 3], [0, 3, 3], [0, 0, 0], [0, 0, 0]]


@pytest.mark.parametrize("engine,flags,finish_us", [
    ("nonblocking", "noflags", 40.97),
    # The two deadlock cells are pinned, not endorsed: a ruling on the
    # hazard (erroneous program, or kind-separated ω counters) will change
    # them on purpose; nothing else may.
    ("nonblocking", "A_A_A_R", None),
    ("nonblocking", "allflags", None),
    ("signal", "noflags", 40.92),
    ("signal", "A_A_A_R", 32.05),
    ("signal", "allflags", 32.05),
])
def test_shared_grant_counter_hazard_seed(engine, flags, finish_us):
    rt = make_runtime(5, engine, cores_per_node=1)
    app = _mixed_origin_app(_HAZARD_STEPS, (0.0,) * 5, FLAG_SETS[flags])
    if finish_us is None:
        with pytest.raises(SimulationDeadlock):
            rt.run(app)
    else:
        assert rt.run(app) == _HAZARD_BYTES
        assert round(rt.now, 2) == finish_us


# ---------------------------------------------------------------------------
# Wake-ups no registry workload depends on: each of these hangs (a
# SimulationDeadlock, loudly) when its row of the table is dropped.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["nonblocking", "signal"])
@pytest.mark.parametrize("with_put", [False, True], ids=["empty", "put"])
def test_epoch_whose_inputs_are_all_in_at_activation(engine, with_put):
    """A GATS access epoch opened, filled and closed while deferred
    behind a lock epoch, its grant long since in: activation is the only
    event left to make it (and its recorded put) due."""
    def app(proc):
        win = yield from proc.win_allocate(64, info={SEMANTICS_CHECK_INFO_KEY: 1})
        yield from proc.barrier()
        if proc.rank == 0:
            win.ilock(1)
            win.put(np.int64([1]), 1, 0)
            reqs = [win.iunlock(1)]
            win.istart((1,))
            if with_put:
                win.put(np.int64([2]), 1, 8)
            reqs.append(win.icomplete())
            yield from proc.waitall(reqs)
        else:
            yield from win.post((0,))
            yield from win.wait_epoch()
        yield from proc.barrier()
        return win.view(np.int64, 0, 2).copy()

    res = make_runtime(2, engine).run(app)
    np.testing.assert_array_equal(res[1], [1, 2 if with_put else 0])


@pytest.mark.parametrize("engine", ["nonblocking", "signal"])
@pytest.mark.parametrize("post_delay", [0.0, 5.0, 50.0])
def test_lock_grant_moves_the_counter_a_gats_epoch_compares(monkeypatch, engine, post_delay):
    """ω keeps one ``g_r`` per host for exposure *and* lock grants.  With
    A_A_A_R the access epoch (A=2) is active beside the lock epoch (A=1);
    the exposure grant arrives first (g=1 < 2) and it is the lock grant
    that satisfies it, so that grant must make it due as well."""
    def app(proc):
        win = yield from proc.win_allocate(
            64, info={SEMANTICS_CHECK_INFO_KEY: 1, A_A_A_R: 1})
        yield from proc.barrier()
        if proc.rank == 0:
            win.ilock(1)
            win.put(np.int64([1]), 1, 0)
            reqs = [win.iunlock(1)]
            win.istart((1,))
            win.put(np.int64([2]), 1, 8)
            reqs.append(win.icomplete())
            yield from proc.waitall(reqs)
        else:
            yield from proc.compute(post_delay)
            yield from win.post((0,))
            yield from win.wait_epoch()
        yield from proc.barrier()
        return win.view(np.int64, 0, 2).copy()

    _substitute(monkeypatch, AUDITED)
    rt = make_runtime(2, engine)
    assert isinstance(rt.engines[0], _Audited)
    np.testing.assert_array_equal(rt.run(app)[1], [1, 2])


@pytest.mark.parametrize("engine", ["nonblocking", "signal"])
def test_late_grant_releases_a_closed_epoch_with_nothing_to_post(engine):
    """Access epoch to {1, 2} with ops only toward 1; rank 2 posts late.
    Its grant has nothing to post, only a done to let out."""
    def app(proc):
        win = yield from proc.win_allocate(64, info={SEMANTICS_CHECK_INFO_KEY: 1})
        yield from proc.barrier()
        if proc.rank == 0:
            yield from win.start((1, 2))
            win.put(np.int64([5]), 1, 0)
            yield from win.complete()
        else:
            if proc.rank == 2:
                yield from proc.compute(50.0)
            yield from win.post((0,))
            yield from win.wait_epoch()
        yield from proc.barrier()
        return int(win.view(np.int64)[0])

    assert make_runtime(3, engine).run(app) == [0, 5, 0]


# ---------------------------------------------------------------------------
# (d) the (target, access id) -> epoch index
# ---------------------------------------------------------------------------
def _origin_with_open_lock():
    """Rank 0 mid-way through an exclusive lock on rank 1: granted, its
    one put issued, not yet closed."""
    rt = make_runtime(2, metrics=True)
    captured = {}

    def app(proc):
        win = yield from proc.win_allocate(64)
        yield from proc.barrier()
        if proc.rank == 0:
            yield from win.lock(1)
            win.put(np.int64([7]), 1, 0)
            yield from win.flush(1)
            captured["ws"], captured["eng"] = win._state, win.engine
            captured["ep"] = win._state.epochs[-1]
            captured["during"] = dict(win._state.lock_epochs)
            yield from win.unlock(1)
        yield from proc.barrier()

    rt.run(app)
    return captured


def test_index_holds_an_epoch_from_request_to_ack():
    c = _origin_with_open_lock()
    ep = c["ep"]
    assert c["during"] == {(1, ep.access_ids[1]): ep}
    assert c["ws"].lock_epochs == {}  # the UnlockAck popped it
    assert ep.completed and ep.lock_stage == {1: UNLOCK_ACKED}


def test_replayed_grant_and_stale_ack_neither_enqueue_nor_raise():
    c = _origin_with_open_lock()
    ws, eng, ep = c["ws"], c["eng"], c["ep"]
    access_id = ep.access_ids[1]
    assert not ws.post_ready and not ws.advance_ready
    # A grant one past g gets past the idempotent g update; the index
    # no longer knows the epoch, so nothing is woken.
    g = ws.board.inbound[SignalChannel.GRANT, 1]
    eng._on_grant(ws, GrantUpdate(ws.gid, granter=1, lock_access_id=access_id,
                                  grant_seq=g + 1), 1)
    # A sequenced replay is dropped before it reaches the index at all.
    eng._on_grant(ws, GrantUpdate(ws.gid, granter=1, lock_access_id=access_id,
                                  grant_seq=ws.board.inbound[SignalChannel.GRANT, 1]), 1)
    eng._on_unlock_ack(ws, UnlockAck(ws.gid, access_id=access_id), 1)
    eng._on_unlock_ack(ws, UnlockAck(ws.gid, access_id=access_id + 99), 1)
    assert not ws.post_ready and not ws.advance_ready
    assert ep.lock_stage == {1: UNLOCK_ACKED} and ws.lock_epochs == {}
    assert eng.runtime.metrics_summary()["counters"]["omega.dup_grants_ignored"] == 1


def test_grant_replayed_while_the_lock_is_held_is_ignored():
    rt = make_runtime(2)
    seen = {}

    def app(proc):
        win = yield from proc.win_allocate(64)
        yield from proc.barrier()
        if proc.rank == 0:
            yield from win.lock(1)
            win.put(np.int64([7]), 1, 0)
            yield from win.flush(1)
            ws, eng = win._state, win.engine
            ep = ws.epochs[-1]
            assert ep.kind is EpochKind.LOCK and ep.lock_stage[1] == LOCK_HELD
            g = ws.board.inbound[SignalChannel.GRANT, 1]
            eng._on_grant(ws, GrantUpdate(ws.gid, granter=1, grant_seq=g + 1,
                                          lock_access_id=ep.access_ids[1]), 1)
            seen["woken"] = bool(ws.post_ready or ws.advance_ready)
            yield from win.unlock(1)
        yield from proc.barrier()

    rt.run(app)
    assert seen == {"woken": False}


# ---------------------------------------------------------------------------
# The deterministic gate: examinations scale with epochs, not with sweeps
# ---------------------------------------------------------------------------
def _examined(nonblocking: bool) -> tuple[int, int]:
    context = ExplorationContext()
    res = run_transactions(TransactionsConfig(
        nranks=16, txns_per_rank=20, nonblocking=nonblocking, reorder=nonblocking,
        max_pending=8, exploration=context,
    ))
    assert res.applied == res.total_txns
    (rt,) = context.runtimes
    return sum(e.epochs_examined for e in rt.engines), res.total_txns


def test_examinations_per_epoch_are_bounded():
    """Deep deferred queues (i* + A_A_A_R) no longer multiply the work:
    before the ready sets this cell examined 36 436 times for 320 epochs
    (114 per epoch), and the blocking control 5 200 times.  The baseline
    on the ``--scaling`` fan-in examines a lock epoch 5 times: at the
    unlock call, twice on its grant, on its delivery and on its ack (its
    own fixpoint scan made 9.59 per epoch on the 1 024-rank cell)."""
    examined, epochs = _examined(nonblocking=True)
    assert examined <= 8 * epochs
    blocking, _ = _examined(nonblocking=False)
    assert blocking <= 5200
    model = NetworkModel().with_overrides(baseline_scan_cost_us=SCAN_COST_US)
    rt = runtime_mod.MPIRuntime(64, cores_per_node=1, engine="mvapich", model=model)
    epochs = sum(rt.run(contended_fan_in(nonblocking=False)))
    assert sum(e.epochs_examined for e in rt.engines) <= 5 * epochs


@pytest.mark.parametrize("engine", ["nonblocking", "signal", "mvapich"])
@pytest.mark.parametrize("k", [4, 8, 16])
def test_completion_tests_per_fanout_epoch_are_linear_in_its_targets(monkeypatch, engine, k):
    """1 -> k GATS fan-out, the hosts posting one after the other once
    the origin sits in ``complete``: every grant and every delivery
    re-examines the closed epoch.  Testing all k targets each time made
    that ~2·k² tests per epoch; a due target is tested on the close
    call, on its grant and on its delivery.  An exposure evaluates its
    group predicate on activation, close and arrival.  The baseline's
    two-phase gate was such an all() over the targets at every
    examination; as arrival counts it tests each grant once at the
    opening call, once as it lands and once at the drain, where it also
    runs the epoch's only completion tests."""
    grant_tests = []
    real = MvapichEngine._access_granted

    def counted(self, ws, ep, target):
        grant_tests.append(self.rank)
        return real(self, ws, ep, target)

    monkeypatch.setattr(MvapichEngine, "_access_granted", counted)
    rounds = 3
    hosts = tuple(range(1, k + 1))

    def app(proc):
        win = yield from proc.win_allocate(64)
        yield from proc.barrier()
        for step in range(rounds):
            if proc.rank == 0:
                yield from win.start(hosts)
                for host in hosts:
                    win.put(np.int64([step + 1]), host, 0)
                yield from win.complete()
            else:
                yield from proc.compute(2.0 * proc.rank)
                yield from win.post((0,))
                yield from win.wait_epoch()
        yield from proc.barrier()
        return int(win.view(np.int64)[0])

    rt = make_runtime(k + 1, engine)
    assert rt.run(app) == [0] + [rounds] * k
    origin, *exposers = rt.engines
    if engine == "mvapich":
        assert origin.targets_examined == k * rounds
        assert grant_tests.count(0) == 3 * k * rounds
    else:
        assert 2 * k * rounds < origin.targets_examined <= 4 * k * rounds
    for eng in exposers:
        assert eng.targets_examined <= 4 * rounds
