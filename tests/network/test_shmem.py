"""Intranode notification FIFO: an entry is ``(NotificationPacket, sender)``."""

from repro import MPIRuntime
from repro.network import ClusterTopology, Fabric, NotificationFifo, NotificationPacket
from repro.rma.notify import SignalChannel
from repro.simtime import Simulator


class TestFifo:
    def _pair(self):
        sim = Simulator()
        fab = Fabric(sim, ClusterTopology(2, cores_per_node=2))
        fifos = [NotificationFifo(fab, r) for r in range(2)]
        for r in range(2):
            fab.register_handler(
                r, lambda p, s, r=r: fifos[r].push(p, s) if isinstance(p, NotificationPacket) else None
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

    def test_send_and_drain(self):
        rt, engine, ws = self._runtime()
        fifo0 = rt.middlewares[0].fifo
        fifo0.send(1, ws.gid, 7)
        fifo0.send(1, ws.gid, 9)
        rt.sim.run()
        # Each delivery pokes rank 1's engine, whose step 5 consumed it
        # and credited the done to the fabric source, rank 0.
        assert len(engine.fifo) == 0
        assert ws.board.inbound[SignalChannel.DONE, 0] == 9

    def test_two_way_independent(self):
        sim, fifos = self._pair()
        fifos[0].send(1, 0, 1)
        fifos[1].send(0, 0, 2)
        sim.run_until_idle()
        assert len(fifos[0]) == 1 and len(fifos[1]) == 1

    def test_pending_peeks_without_consuming(self):
        sim, fifos = self._pair()
        fifos[0].send(1, 3, 5)
        sim.run_until_idle()
        ((packet, sender),) = fifos[1].pending()
        assert (packet.win, packet.access_id, sender) == (3, 5, 0)
        assert len(fifos[1]) == 1  # still queued
