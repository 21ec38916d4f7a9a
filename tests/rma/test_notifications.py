"""Notification routing: intranode dones ride the 64-bit FIFO (§VII-D),
internode dones travel as control packets."""

import numpy as np

from repro import MPIRuntime


def run_gats_pair(cores_per_node):
    rt = MPIRuntime(2, cores_per_node=cores_per_node, engine="nonblocking", causal=True)

    def app(proc):
        win = yield from proc.win_allocate(64)
        yield from proc.barrier()
        if proc.rank == 0:
            yield from win.start([1])
            win.put(np.int64([1]), 1, 0)
            yield from win.complete()
        else:
            yield from win.post([0])
            yield from win.wait_epoch()
        yield from proc.barrier()

    rt.run(app)
    return rt


def _kinds(rt):
    """Span kinds of the run, message spans named by their payload."""
    return [s.meta["ptype"] if s.kind == "msg" else s.kind for s in rt.causal.spans]


class TestDoneRouting:
    def test_intranode_done_uses_fifo(self):
        rt = run_gats_pair(cores_per_node=2)  # same node
        assert _kinds(rt).count("done.fifo") == 1, "no done sent"
        assert "DonePacket" not in _kinds(rt)

    def test_internode_done_uses_packet(self):
        rt = run_gats_pair(cores_per_node=1)  # distinct nodes
        assert _kinds(rt).count("DonePacket") == 1
        assert "done.fifo" not in _kinds(rt)

    def test_fifo_notification_is_8_bytes(self):
        """The §VII-D channel deals only in 64-bit packets."""
        rt = MPIRuntime(2, cores_per_node=2, engine="nonblocking")
        sizes = []
        original_send = rt.fabric.send

        def spy(src, dst, nbytes, payload, *args, **kw):
            from repro.network.shmem import NotificationPacket

            if isinstance(payload, NotificationPacket):
                sizes.append(nbytes)
            return original_send(src, dst, nbytes, payload, *args, **kw)

        rt.fabric.send = spy

        def app(proc):
            win = yield from proc.win_allocate(64)
            yield from proc.barrier()
            if proc.rank == 0:
                yield from win.start([1])
                yield from win.complete()
            else:
                yield from win.post([0])
                yield from win.wait_epoch()
            yield from proc.barrier()

        rt.run(app)
        assert sizes and all(s == 8 for s in sizes)


class TestSimulatorResume:
    def test_run_until_then_continue(self):
        """A paused simulation resumes exactly where it stopped."""
        rt = MPIRuntime(2, cores_per_node=1, engine="nonblocking")
        finished = {}

        def app(proc):
            win = yield from proc.win_allocate(2 << 20)
            yield from proc.barrier()
            if proc.rank == 0:
                yield from win.lock(1)
                win.put(np.zeros(1 << 20, dtype=np.uint8), 1, 0)
                yield from win.unlock(1)
            yield from proc.barrier()
            finished[proc.rank] = proc.wtime()

        for r in range(2):
            rt.sim.process(app(rt.processes[r]), name=f"rank{r}")
        rt.sim.run(until=100.0)
        assert rt.now == 100.0
        assert not finished  # 1 MB put takes ~340 µs
        rt.sim.run()
        assert finished and max(finished.values()) > 300.0
