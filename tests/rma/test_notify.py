"""Notified access (foMPI-style) and the SignalBoard edge cases.

Hypothesis drives the corners the paper-level tests never hit: zero-byte
notified puts, self-targeted signals, counter wraparound, and duplicate
signal delivery under an injected-fault fabric.  The board's sparsity is
pinned here too: it behaves like a dense ``(channel, peer)`` array while
holding an entry only for what was written.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan
from repro.mpi.errors import RmaInternalError, UnsupportedOperation
from repro.rma.notify import SIGNAL_LIMIT, SignalBoard, SignalChannel, row_items
from repro.rma.window import MODE_NOSUCCEED
from tests.conftest import bytes_buf, make_runtime


def signal_runtime(nranks, **kwargs):
    return make_runtime(nranks, engine="signal", **kwargs)


class TestSignalWait:
    def test_signal_then_notify_wait(self):
        def app(proc):
            win = yield from proc.win_allocate(8)
            yield from proc.barrier()
            if proc.rank == 0:
                win.signal(1)
            else:
                yield from win.notify_wait(0)
            yield from proc.barrier()
            return True

        assert all(signal_runtime(2).run(app))

    def test_notify_wait_counts_multiple_signals(self):
        def app(proc):
            win = yield from proc.win_allocate(8)
            yield from proc.barrier()
            if proc.rank == 0:
                for _ in range(3):
                    win.signal(1)
            else:
                yield from win.notify_wait(0, count=3)
            yield from proc.barrier()

        signal_runtime(2).run(app)  # must terminate

    def test_test_signal_consumes_exactly_on_success(self):
        seen = {}

        def app(proc):
            win = yield from proc.win_allocate(8)
            yield from proc.barrier()
            if proc.rank == 0:
                win.signal(1)
                win.signal(1)
            else:
                yield from win.notify_wait(0, count=2)  # both arrived
                # Board drained by the wait: a further probe fails...
                assert win.test_signal(0) is False
            yield from proc.barrier()
            if proc.rank == 0:
                win.signal(1)
            yield from proc.barrier()
            if proc.rank == 1:
                # ...and succeeds once (consuming), then fails again.
                seen["first"] = win.test_signal(0)
                seen["second"] = win.test_signal(0)

        signal_runtime(2).run(app)
        assert seen == {"first": True, "second": False}

    def test_self_targeted_signal(self):
        """signal(self) is legal: the loopback lane delivers it and a
        local notify_wait consumes it."""

        def app(proc):
            win = yield from proc.win_allocate(8)
            yield from proc.barrier()
            win.signal(proc.rank)
            yield from win.notify_wait(proc.rank)
            yield from proc.barrier()
            return True

        assert all(signal_runtime(2).run(app))

    def test_inotify_wait_is_request_first(self):
        def app(proc):
            win = yield from proc.win_allocate(8)
            yield from proc.barrier()
            if proc.rank == 1:
                req = win.inotify_wait(0)  # reserve before the signal exists
                assert not req.done
                yield from proc.barrier()
                yield from req.wait()
            else:
                yield from proc.barrier()
                win.signal(1)

        signal_runtime(2).run(app)


class TestNotifiedTransfers:
    def test_put_notify_data_visible_at_wait(self):
        """The signal rides behind the payload on the same FIFO lane:
        when notify_wait returns, the put's bytes are already applied."""

        def app(proc):
            win = yield from proc.win_allocate(8)
            yield from proc.barrier()
            yield from win.lock_all()
            if proc.rank == 0:
                req = win.put_notify(np.int64([42]), 1, 0)
                yield from req.wait()
            else:
                yield from win.notify_wait(0)
                assert int(win.view(np.int64)[0]) == 42
            yield from win.unlock_all()
            yield from proc.barrier()
            return int(win.view(np.int64)[0])

        assert signal_runtime(2).run(app)[1] == 42

    def test_zero_byte_put_notify(self):
        """A zero-byte notified put degenerates to a pure signal — it
        must still deliver exactly one notification."""

        def app(proc):
            win = yield from proc.win_allocate(8)
            yield from proc.barrier()
            yield from win.lock_all()
            if proc.rank == 0:
                req = win.put_notify(bytes_buf(0), 1, 0)
                yield from req.wait()
            else:
                yield from win.notify_wait(0)
                assert win.test_signal(0) is False  # exactly one signal
            yield from win.unlock_all()
            yield from proc.barrier()

        signal_runtime(2).run(app)

    def test_get_notify_signals_the_read_target(self):
        def app(proc):
            win = yield from proc.win_allocate(8)
            if proc.rank == 1:
                win.view(np.int64)[0] = 99
            yield from proc.barrier()
            yield from win.lock_all()
            if proc.rank == 0:
                out = np.empty(1, dtype=np.int64)
                req = win.get_notify(out, 1, 0)
                yield from req.wait()
                assert int(out[0]) == 99
            else:
                yield from win.notify_wait(0)  # learns its memory was read
            yield from win.unlock_all()
            yield from proc.barrier()

        signal_runtime(2).run(app)

    @given(nbytes=st.integers(0, 64), nputs=st.integers(1, 5), seed=st.integers(0, 999))
    @settings(max_examples=15, deadline=None)
    def test_notification_count_matches_put_count(self, nbytes, nputs, seed):
        """Property: N notified puts of any size (zero included) deliver
        exactly N notifications, and the last payload is applied."""
        rng = np.random.default_rng(seed)
        payloads = [rng.integers(0, 255, nbytes, dtype=np.uint8) for _ in range(nputs)]

        def app(proc):
            win = yield from proc.win_allocate(max(nbytes, 1))
            yield from proc.barrier()
            yield from win.lock_all()
            if proc.rank == 0:
                for data in payloads:
                    req = win.put_notify(data, 1, 0)
                    yield from req.wait()
            else:
                yield from win.notify_wait(0, count=nputs)
                assert win.test_signal(0) is False
                if nbytes:
                    np.testing.assert_array_equal(
                        win.view(np.uint8, 0, nbytes), payloads[-1]
                    )
            yield from win.unlock_all()
            yield from proc.barrier()

        signal_runtime(2).run(app)


class TestUnsupportedEngines:
    @pytest.mark.parametrize("engine", ["nonblocking", "mvapich", "adaptive"])
    def test_omega_engines_reject_notified_access(self, engine):
        def app(proc):
            win = yield from proc.win_allocate(8)
            yield from proc.barrier()
            with pytest.raises(UnsupportedOperation, match=engine):
                win.signal(0)
            with pytest.raises(UnsupportedOperation):
                win.put_notify(bytes_buf(8), 0)
            yield from proc.barrier()

        make_runtime(2, engine).run(app)


class TestBoardSparsity:
    def test_untouched_reads_zero(self):
        board = SignalBoard()
        assert board.reached(SignalChannel.GRANT, 123456, 0)
        assert not board.reached(SignalChannel.GRANT, 123456, 1)
        assert board.unconsumed(SignalChannel.NOTIFY, 7) == 0
        assert not board.apply(SignalChannel.DONE, 3, 0)  # a replay of nothing
        board.floor_inbound(SignalChannel.FENCE_OPEN, 4, 0)
        board.raise_outbound(SignalChannel.FENCE_DONE, 5, 0)
        assert (len(board.outbound), len(board.inbound), len(board.expected)) == (0, 0, 0)
        assert board.snapshot() == {}

    def test_store_then_load(self):
        board = SignalBoard()
        assert board.bump_outbound(SignalChannel.GRANT, 5) == 1
        assert board.bump_expected(SignalChannel.GRANT, 5, count=2) == 2
        assert board.apply(SignalChannel.GRANT, 5, 3)
        board.floor_inbound(SignalChannel.DONE, 5, 9)
        assert board.reached(SignalChannel.GRANT, 5, 3)
        assert board.unconsumed(SignalChannel.GRANT, 5) == 1
        assert board.inbound == {(SignalChannel.GRANT, 5): 3, (SignalChannel.DONE, 5): 9}
        assert (len(board.outbound), len(board.expected)) == (1, 1)

    def test_row_items_ascending_and_row_scoped(self):
        board = SignalBoard()
        for peer in (9, 2, 2):
            board.bump_outbound(SignalChannel.GRANT, peer)
        board.bump_outbound(SignalChannel.DONE, 4)
        board.bump_expected(SignalChannel.GRANT, 6, count=0)  # an entry holding 0
        assert list(row_items(board.outbound, SignalChannel.GRANT)) == [(2, 2), (9, 1)]
        assert list(row_items(board.outbound, SignalChannel.DONE)) == [(4, 1)]
        assert list(row_items(board.expected, SignalChannel.GRANT)) == []
        assert list(board.snapshot()) == ["grant", "done"]
        assert board.snapshot()["grant"] == {"out": {"2": 2, "9": 1}}


_NPEERS = 32

_board_ops = st.lists(
    st.tuples(
        st.sampled_from(("bump_outbound", "raise_outbound", "apply", "floor_inbound",
                         "bump_expected", "read")),
        st.sampled_from(list(SignalChannel)),
        st.integers(0, _NPEERS - 1),
        st.integers(0, 20),
    ),
    max_size=60,
)


@given(ops=_board_ops)
@settings(max_examples=60, deadline=None)
def test_board_matches_dense_reference(ops):
    """Op for op, the board answers like three dense ``(channel, peer)``
    arrays, its rows are theirs in ascending peer order, and it holds an
    entry for exactly the counters a write moved off zero."""
    board = SignalBoard()
    dense = {name: np.zeros((len(SignalChannel), _NPEERS), dtype=np.int64)
             for name in ("outbound", "inbound", "expected")}
    out, inb, exp = dense["outbound"], dense["inbound"], dense["expected"]
    for what, ch, peer, val in ops:
        if what == "bump_outbound":
            out[ch, peer] += 1
            assert board.bump_outbound(ch, peer) == out[ch, peer]
        elif what == "raise_outbound":
            out[ch, peer] = max(out[ch, peer], val)
            assert board.raise_outbound(ch, peer, val) == val
        elif what == "apply":
            took = bool(val > inb[ch, peer])
            inb[ch, peer] = max(inb[ch, peer], val)
            assert board.apply(ch, peer, val) is took
        elif what == "floor_inbound":
            inb[ch, peer] = max(inb[ch, peer], val)
            board.floor_inbound(ch, peer, val)
        elif what == "bump_expected":
            exp[ch, peer] += val + 1
            assert board.bump_expected(ch, peer, val + 1) == exp[ch, peer]
        else:
            assert board.reached(ch, peer, val) == (inb[ch, peer] >= val)
            assert board.unconsumed(ch, peer) == inb[ch, peer] - exp[ch, peer]
    for name, ref in dense.items():
        counters = getattr(board, name)
        for ch in SignalChannel:
            want = [(p, int(v)) for p, v in enumerate(ref[ch]) if v]
            assert list(row_items(counters, ch)) == want
        assert len(counters) == np.count_nonzero(ref)


class TestWraparoundGuard:
    @given(channel=st.sampled_from(list(SignalChannel)))
    @settings(max_examples=len(SignalChannel), deadline=None)
    def test_outbound_bump_refuses_to_wrap(self, channel):
        board = SignalBoard()
        board.outbound[channel, 1] = SIGNAL_LIMIT - 1
        with pytest.raises(RmaInternalError, match="wraparound"):
            board.bump_outbound(channel, 1)

    def test_outbound_floor_refuses_to_wrap(self):
        board = SignalBoard()
        with pytest.raises(RmaInternalError, match="wraparound"):
            board.raise_outbound(SignalChannel.FENCE_OPEN, 1, SIGNAL_LIMIT)

    def test_expected_reservation_refuses_to_wrap(self):
        board = SignalBoard()
        board.expected[SignalChannel.NOTIFY, 0] = SIGNAL_LIMIT - 2
        with pytest.raises(RmaInternalError, match="wraparound"):
            board.bump_expected(SignalChannel.NOTIFY, 0, count=2)

    def test_limit_leaves_headroom_below_int64(self):
        assert SIGNAL_LIMIT < np.iinfo(np.int64).max


class TestDupIdempotence:
    def test_replayed_signal_is_ignored(self):
        """Unit-level contract: max() application discards replays and
        counts them, exactly like GrantUpdate.grant_seq."""
        board = SignalBoard()
        v = board.bump_outbound(SignalChannel.NOTIFY, 1)
        peer = SignalBoard()
        assert peer.apply(SignalChannel.NOTIFY, 0, v) is True
        assert peer.apply(SignalChannel.NOTIFY, 0, v) is False  # replay
        assert peer.apply(SignalChannel.NOTIFY, 0, v - 1) is False  # stale
        assert peer.dup_signals_ignored == 2
        assert peer.inbound[SignalChannel.NOTIFY, 0] == v

    @given(fault_seed=st.integers(0, 2**20), nputs=st.integers(1, 6))
    @settings(max_examples=10, deadline=None)
    def test_notified_puts_exact_under_faulty_fabric(self, fault_seed, nputs):
        """Drops, duplicates and delay spikes on the fabric must not
        change the notification count or the data — signals are
        idempotent under retransmission like every other packet."""
        plan = FaultPlan.light_chaos(seed=fault_seed, duplicate=0.05)

        def app(proc):
            win = yield from proc.win_allocate(8)
            yield from proc.barrier()
            yield from win.lock_all()
            if proc.rank == 0:
                for i in range(nputs):
                    req = win.put_notify(np.int64([i + 1]), 1, 0)
                    yield from req.wait()
            else:
                yield from win.notify_wait(0, count=nputs)
                assert win.test_signal(0) is False  # exactly nputs signals
                assert int(win.view(np.int64)[0]) == nputs
            yield from win.unlock_all()
            yield from proc.barrier()

        signal_runtime(2, fault_plan=plan).run(app)

    @given(fault_seed=st.integers(0, 2**20))
    @settings(max_examples=8, deadline=None)
    def test_epoch_protocol_survives_faulty_fabric(self, fault_seed):
        """GATS + fence + lock epochs all ride signals; a chaotic fabric
        must leave the final memory identical to the lossless run."""
        plan = FaultPlan.light_chaos(seed=fault_seed, duplicate=0.05)

        def app(proc):
            win = yield from proc.win_allocate(8 * proc.size)
            yield from proc.barrier()
            yield from win.fence()
            win.put(np.int64([proc.rank + 1]), (proc.rank + 1) % proc.size, 0)
            yield from win.fence(assert_=MODE_NOSUCCEED)
            for _ in range(3):
                yield from win.lock(0)
                win.accumulate(np.int64([1]), 0, 8)
                yield from win.unlock(0)
            yield from proc.barrier()
            return win.view(np.int64).copy()

        clean = np.stack(signal_runtime(3).run(app))
        faulty = np.stack(signal_runtime(3, fault_plan=plan).run(app))
        np.testing.assert_array_equal(clean, faulty)
