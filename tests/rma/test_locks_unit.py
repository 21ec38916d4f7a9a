"""LockManager unit tests: grant policy in isolation."""

import pytest

from repro.rma.locks import LockManager


def make():
    grants = []
    mgr = LockManager(lambda _host, w: grants.append(w.origin))
    return mgr, grants


class TestExclusivePolicy:
    def test_free_lock_granted_immediately(self):
        mgr, grants = make()
        mgr.request(1, True, 1)
        assert grants == [1]
        assert mgr.holds(1)

    def test_second_exclusive_queues(self):
        mgr, grants = make()
        mgr.request(1, True, 1)
        mgr.request(2, True, 1)
        assert grants == [1]
        assert [w.origin for w in mgr.queued] == [2]

    def test_release_grants_next(self):
        mgr, grants = make()
        mgr.request(1, True, 1)
        mgr.request(2, True, 1)
        mgr.release(1)
        assert grants == [1, 2]
        assert mgr.holds(2) and not mgr.holds(1)

    def test_fifo_across_origins(self):
        mgr, grants = make()
        mgr.request(1, True, 1)
        for o in (2, 3, 4):
            mgr.request(o, True, 1)
        for o in (1, 2, 3):
            mgr.release(o)
        assert grants == [1, 2, 3, 4]


class TestSharedPolicy:
    def test_consecutive_shared_granted_together(self):
        mgr, grants = make()
        mgr.request(1, False, 1)
        mgr.request(2, False, 1)
        mgr.request(3, False, 1)
        assert grants == [1, 2, 3]
        assert not mgr.locked_exclusive

    def test_shared_behind_exclusive_waits(self):
        mgr, grants = make()
        mgr.request(1, True, 1)
        mgr.request(2, False, 1)
        assert grants == [1]
        mgr.release(1)
        assert grants == [1, 2]

    def test_exclusive_behind_shared_blocks_later_shared(self):
        """No writer starvation: a shared request behind a queued
        exclusive waits even though the lock is held shared."""
        mgr, grants = make()
        mgr.request(1, False, 1)
        mgr.request(2, True, 1)   # queued
        mgr.request(3, False, 1)  # must NOT jump the exclusive
        assert grants == [1]
        mgr.release(1)
        assert grants == [1, 2]
        mgr.release(2)
        assert grants == [1, 2, 3]

    def test_exclusive_waits_for_all_shared_holders(self):
        mgr, grants = make()
        mgr.request(1, False, 1)
        mgr.request(2, False, 1)
        mgr.request(3, True, 1)
        mgr.release(1)
        assert grants == [1, 2]
        mgr.release(2)
        assert grants == [1, 2, 3]


class TestExclusiveFlag:
    def test_exclusive_then_shared_burst_then_exclusive(self):
        """``locked_exclusive`` is a flag set by an exclusive grant and
        cleared by its release, not a scan of the holders."""
        mgr, grants = make()
        mgr.request(1, True, 1)
        assert grants == [1] and mgr.locked_exclusive and mgr.holder_count == 1
        for o in (2, 3, 4):
            mgr.request(o, False, 1)  # the burst queues behind the writer
        mgr.request(5, True, 1)
        assert grants == [1] and mgr.locked_exclusive
        mgr.release(1)  # the whole shared burst at once, not the writer
        assert grants == [1, 2, 3, 4] and not mgr.locked_exclusive
        assert mgr.holder_count == 3 and [w.origin for w in mgr.queued] == [5]
        mgr.release(2)
        mgr.release(3)
        assert grants == [1, 2, 3, 4] and not mgr.locked_exclusive
        mgr.release(4)
        assert grants == [1, 2, 3, 4, 5] and mgr.locked_exclusive
        assert mgr.holder_count == 1 and mgr.queued == []
        mgr.release(5)
        assert not mgr.locked_exclusive and mgr.holder_count == 0 and mgr.holders == {}


class TestSameOrigin:
    def test_back_to_back_same_origin_waits_for_release(self):
        mgr, grants = make()
        mgr.request(1, True, 1)
        mgr.request(1, True, 2)  # same origin again: queues
        assert grants == [1]
        mgr.release(1)
        assert grants == [1, 1]

    def test_recursive_shared_prevented(self):
        mgr, grants = make()
        mgr.request(1, False, 1)
        mgr.request(1, False, 2)
        assert grants == [1]  # second shared from same origin waits
        mgr.release(1)
        assert grants == [1, 1]


class TestErrors:
    def test_release_without_hold(self):
        mgr, _ = make()
        with pytest.raises(RuntimeError):
            mgr.release(5)

    def test_grant_counter(self):
        mgr, _ = make()
        mgr.request(1, False, 1)
        mgr.request(2, False, 1)
        assert mgr.grants == 2

    def test_holders_copy_is_safe(self):
        mgr, _ = make()
        mgr.request(1, True, 1)
        h = mgr.holders
        h.clear()
        assert mgr.holds(1)
