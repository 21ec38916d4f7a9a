"""Epoch object helpers and kind classification."""

import pytest

from repro.rma.epoch import Epoch, EpochKind, EpochState
from repro.rma.ops import OpKind, RmaOp


def make_epoch(kind=EpochKind.GATS_ACCESS, targets=(1,)):
    return Epoch(kind, win=0, owner=0, targets=targets)


def add_op(ep, target=1, nbytes=8):
    op = RmaOp(OpKind.PUT, 0, target, 0, nbytes, ep, age=len(ep.ops) + 1)
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
        ep = make_epoch()
        ep.state = EpochState.ACTIVE
        assert ep.active
        ep.state = EpochState.COMPLETED
        assert ep.completed

    def test_uids_monotonic(self):
        a, b = make_epoch(), make_epoch()
        assert b.uid > a.uid


class TestOpBookkeeping:
    def test_undelivered_counts(self):
        ep = make_epoch()
        a = add_op(ep)
        add_op(ep)
        assert ep.undelivered == 2
        a.delivered = True
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
        assert ep.ops == [a, b, c]
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
