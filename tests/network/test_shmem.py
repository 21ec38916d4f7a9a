"""64-bit notification packet codec and FIFO."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import MPIRuntime
from repro.network import (
    ClusterTopology,
    Fabric,
    NotificationAuthError,
    NotificationDecodeError,
    NotificationError,
    NotificationFifo,
    NotificationPacket,
    NotifyKind,
    ServiceKind,
    decode_notification,
    encode_notification,
)
from repro.rma.engine.nonblocking import pack_win_value, unpack_win_value
from repro.rma.notify import SignalChannel
from repro.simtime import Simulator


class TestCodec:
    def test_roundtrip(self):
        pkt = encode_notification(NotifyKind.EPOCH_COMPLETE, 123, 456)
        assert decode_notification(pkt) == (NotifyKind.EPOCH_COMPLETE, 123, 456)

    def test_packet_fits_64_bits(self):
        pkt = encode_notification(NotifyKind.EPOCH_COMPLETE, (1 << 20) - 1, (1 << 36) - 1)
        assert 0 <= pkt < (1 << 64)

    def test_rank_overflow_rejected(self):
        with pytest.raises(ValueError):
            encode_notification(NotifyKind.EPOCH_COMPLETE, 1 << 20, 0)

    def test_value_overflow_rejected(self):
        with pytest.raises(ValueError):
            encode_notification(NotifyKind.EPOCH_COMPLETE, 0, 1 << 36)

    @given(
        kind=st.sampled_from(list(NotifyKind)),
        rank=st.integers(0, (1 << 20) - 1),
        value=st.integers(0, (1 << 36) - 1),
    )
    def test_roundtrip_property(self, kind, rank, value):
        assert decode_notification(encode_notification(kind, rank, value)) == (
            kind,
            rank,
            value,
        )

    def test_value_mask_boundary_roundtrips(self):
        """Epoch uids approaching the 36-bit value mask: the boundary
        values survive the codec exactly; one past it is rejected."""
        mask = (1 << 36) - 1
        for value in (mask - 1, mask):
            pkt = encode_notification(NotifyKind.EPOCH_COMPLETE, 3, value)
            assert decode_notification(pkt) == (NotifyKind.EPOCH_COMPLETE, 3, value)
        with pytest.raises(ValueError):
            encode_notification(NotifyKind.EPOCH_COMPLETE, 3, mask + 1)

    def test_unknown_kind_byte_is_typed_and_names_packet(self):
        """A corrupted kind byte raises NotificationDecodeError naming
        the offending packet, not a bare enum ValueError."""
        bogus = (0xEE << 56) | (4 << 36) | 17
        with pytest.raises(NotificationDecodeError) as exc:
            decode_notification(bogus)
        msg = str(exc.value)
        assert "0xee" in msg and f"0x{bogus:016x}" in msg
        assert isinstance(exc.value, NotificationError)

    def test_zero_packet_rejected(self):
        """kind byte 0 is not a valid opcode (guards against zeroed
        shared memory being consumed as a notification)."""
        with pytest.raises(NotificationDecodeError):
            decode_notification(0)

    def test_pack_win_value_id_boundary(self):
        """The [6-bit gid | 30-bit id] value packing enforces its own
        sub-field boundaries before the 36-bit codec ever sees them."""
        id_mask = (1 << 30) - 1
        assert unpack_win_value(pack_win_value(63, id_mask)) == (63, id_mask)
        # The largest packed value still fits the 36-bit codec field.
        pkt = encode_notification(
            NotifyKind.EPOCH_COMPLETE, 0, pack_win_value(63, id_mask)
        )
        assert decode_notification(pkt)[2] == pack_win_value(63, id_mask)
        with pytest.raises(ValueError):
            pack_win_value(64, 0)
        with pytest.raises(ValueError):
            pack_win_value(0, id_mask + 1)


class TestFifo:
    def _pair(self):
        sim = Simulator()
        fab = Fabric(sim, ClusterTopology(2, cores_per_node=2))
        fifos = [NotificationFifo(fab, r) for r in range(2)]
        for r in range(2):
            fab.register_handler(
                r, lambda p, s, r=r: fifos[r].push(p.packet, s) if isinstance(p, NotificationPacket) else None
            )
        return sim, fifos

    def _runtime(self):
        """Two ranks on one node, each with one window: step 5 (the
        engine's ``_consume_notifications``) is the FIFO's only drain.
        Returns the runtime and rank 1's engine and window state."""
        rt = MPIRuntime(2, cores_per_node=2)

        def app(proc):
            yield from proc.win_allocate(8)

        rt.run(app)
        engine = rt.middlewares[1].rma_engine
        (ws,) = engine.states.values()
        return rt, engine, ws

    @staticmethod
    def _done(sender, ws, access_id):
        return encode_notification(NotifyKind.EPOCH_COMPLETE, sender,
                                   pack_win_value(ws.gid, access_id))

    def test_send_and_drain(self):
        rt, engine, ws = self._runtime()
        fifo0 = rt.middlewares[0].fifo
        fifo0.send(1, NotifyKind.EPOCH_COMPLETE, pack_win_value(ws.gid, 7))
        fifo0.send(1, NotifyKind.EPOCH_COMPLETE, pack_win_value(ws.gid, 9))
        rt.sim.run()
        # Each delivery pokes rank 1's engine, whose step 5 consumed it.
        assert len(engine.fifo) == 0
        assert ws.board.inbound[SignalChannel.DONE, 0] == 9

    def test_two_way_independent(self):
        sim, fifos = self._pair()
        fifos[0].send(1, NotifyKind.EPOCH_COMPLETE, 1)
        fifos[1].send(0, NotifyKind.EPOCH_COMPLETE, 2)
        sim.run_until_idle()
        assert len(fifos[0]) == 1 and len(fifos[1]) == 1

    def test_forged_sender_rejected_on_drain(self):
        """Regression: the drain used to trust the in-packet rank blindly.
        A packet whose encoded rank disagrees with the fabric-delivered
        source would then credit the wrong peer's done counter; step 5
        must reject it instead."""
        rt, engine, ws = self._runtime()
        forged = self._done(7, ws, 42)  # the fabric says rank 0, the packet 7
        rt.fabric.send(0, 1, 8, NotificationPacket(forged), kind=ServiceKind.NOTIFY)
        with pytest.raises(NotificationAuthError) as exc:
            rt.sim.run()
        msg = str(exc.value)
        assert "rank 7" in msg and "rank 0" in msg
        assert (SignalChannel.DONE, 7) not in ws.board.inbound

    def test_honest_packets_before_forged_one_still_consumed(self):
        rt, engine, ws = self._runtime()
        engine.fifo.push(self._done(0, ws, 1), 0)
        engine.fifo.push(self._done(7, ws, 2), 0)
        with pytest.raises(NotificationAuthError):
            engine.poke()
        # The honest prefix took effect before the reject.
        assert ws.board.inbound[SignalChannel.DONE, 0] == 1
        assert len(engine.fifo) == 0

    def test_pending_peeks_without_consuming(self):
        sim, fifos = self._pair()
        fifos[0].send(1, NotifyKind.EPOCH_COMPLETE, 5)
        sim.run_until_idle()
        assert fifos[1].pending() == [(NotifyKind.EPOCH_COMPLETE, 0, 5)]
        assert len(fifos[1]) == 1  # still queued
