"""Epoch object helpers and kind classification."""

import itertools
import weakref

import numpy as np
import pytest

from repro.rma import window as window_mod
from repro.rma.engine.registry import ENGINES
from repro.rma.epoch import Epoch, EpochKind, EpochState
from repro.rma.ops import OpKind, RmaOp
from tests.conftest import make_runtime

_ages = itertools.count(1)


def make_epoch(kind=EpochKind.GATS_ACCESS, targets=(1,)):
    return Epoch(kind, win=0, owner=0, targets=targets)


def add_op(ep, target=1, nbytes=8):
    op = RmaOp(OpKind.PUT, 0, target, 0, nbytes, ep, age=next(_ages))
    ep.record_op(op)
    return op


class TestKinds:
    def test_access_sides(self):
        assert EpochKind.GATS_ACCESS.is_access
        assert EpochKind.LOCK.is_access
        assert EpochKind.LOCK_ALL.is_access
        assert EpochKind.FENCE.is_access
        assert not EpochKind.GATS_EXPOSURE.is_access

    def test_reorder_exclusions(self):
        assert EpochKind.FENCE.reorder_excluded
        assert EpochKind.LOCK_ALL.reorder_excluded
        assert not EpochKind.GATS_ACCESS.reorder_excluded
        assert not EpochKind.LOCK.reorder_excluded
        assert not EpochKind.GATS_EXPOSURE.reorder_excluded


class TestState:
    def test_initial_state_deferred(self):
        ep = make_epoch()
        assert ep.deferred and not ep.active and not ep.completed
        assert not ep.app_closed

    def test_state_transitions(self):
        """``state`` is a view of the two bools the engines set."""
        ep = make_epoch()
        assert ep.state is EpochState.DEFERRED
        ep.active = True
        assert ep.state is EpochState.ACTIVE and not ep.deferred
        ep.active, ep.completed = False, True
        assert ep.state is EpochState.COMPLETED and not ep.deferred
        with pytest.raises(AttributeError):
            ep.state = EpochState.ACTIVE

    def test_uids_monotonic(self):
        a, b = make_epoch(), make_epoch()
        assert b.uid > a.uid


class TestOpBookkeeping:
    def test_undelivered_counts(self):
        ep = make_epoch()
        a = add_op(ep)
        add_op(ep)
        assert ep.undelivered == 2
        a.deliver_time = 0.0
        ep.mark_delivered(a)
        assert ep.undelivered == 1

    def test_undelivered_ops_is_the_in_flight_set(self):
        """What a flush filters: never the whole ``ops`` history."""
        ep = make_epoch(targets=(1, 2))
        a, b, c = add_op(ep, target=1), add_op(ep, target=2), add_op(ep, target=1)
        assert ep.undelivered_ops(1) == [a, c]
        assert set(ep.undelivered_ops()) == {a, b, c}
        assert not ep.mark_delivered(a)  # not closed: no completion input moved
        ep.app_closed = True
        assert ep.mark_delivered(b)
        assert ep.undelivered_ops() == [c] and ep.undelivered_ops(2) == []
        # A delivered op has left, and a target with it its last op.
        assert list(ep._undelivered_by_target) == [1]
        ep.take_unissued(1), ep.take_unissued(2)
        assert ep.pending_to(1) and not ep.pending_to(2)

    def test_unissued_bookkeeping(self):
        ep = make_epoch(targets=(1, 2))
        add_op(ep, target=1)
        b = add_op(ep, target=2)
        assert ep.unissued_count == 2
        assert set(ep.unissued_targets()) == {1, 2}
        assert not ep.all_issued_to(1)
        taken = ep.take_unissued(1)
        assert len(taken) == 1
        assert ep.unissued_count == 1
        assert ep.all_issued_to(1)
        assert ep.take_unissued(2) == [b]
        assert ep.unissued_count == 0
        assert ep.unissued_targets() == []

    def test_op_target_range(self):
        ep = make_epoch()
        op = RmaOp(OpKind.PUT, 0, 1, 16, 32, ep, age=1)
        assert op.target_range == (16, 48)

    def test_op_kind_classification(self):
        assert OpKind.PUT.writes_target and not OpKind.GET.writes_target
        assert OpKind.ACCUMULATE.is_atomic and not OpKind.PUT.is_atomic
        assert OpKind.GET_ACCUMULATE.writes_target

    def test_negative_op_size_rejected(self):
        ep = make_epoch()
        with pytest.raises(ValueError):
            RmaOp(OpKind.PUT, 0, 1, 0, -1, ep, age=1)


@pytest.mark.parametrize("engine", ENGINES)
def test_a_delivered_op_is_freed_before_its_epoch_closes(monkeypatch, engine):
    """An epoch holds an op only while it is owed: inside a long
    ``lock_all`` epoch, a put whose caller dropped it is freed (by
    reference counting: the run pauses the cyclic collector) once it is
    delivered, while the epoch is still open."""
    refs = []

    class TrackedOp(RmaOp):  # the subclass regains ``__weakref__``
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(window_mod, "RmaOp", TrackedOp)

    def app(proc):
        win = yield from proc.win_allocate(64)
        yield from proc.barrier()
        alive = None
        if proc.rank == 0:
            yield from win.lock_all()
            win.put(np.int64([7]), 1, 0)
            yield from win.flush(1)
            yield from proc.compute(5.0)
            alive = [ref() is not None for ref in refs]
            yield from win.unlock_all()
        yield from proc.barrier()
        return alive

    assert make_runtime(2, engine).run(app)[0] == [False]


@pytest.mark.parametrize("engine", ENGINES)
def test_no_empty_target_entry_survives_a_closed_lock_all_epoch(engine):
    """A target leaves the in-flight index with its last delivered op:
    a flushed ``lock_all`` epoch holds no entry while it is still open,
    and a closed one none at all."""

    def app(proc):
        win = yield from proc.win_allocate(64)
        yield from proc.barrier()
        seen = None
        if proc.rank == 0:
            yield from win.lock_all()
            ep = win._epoch_for(1)
            for target in range(1, proc.size):
                win.put(np.int64([target]), target, 0)
            yield from win.flush_all()
            flushed = dict(ep._undelivered_by_target)
            win.put(np.int64([9]), 2, 8)
            yield from win.unlock_all()
            seen = (flushed, dict(ep._undelivered_by_target), ep.completed)
        yield from proc.barrier()
        return seen

    assert make_runtime(4, engine).run(app)[0] == ({}, {}, True)
