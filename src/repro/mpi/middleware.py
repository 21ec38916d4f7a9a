"""Per-rank middleware: routes fabric deliveries to the right layer.

Each rank owns one :class:`RankMiddleware` holding its two-sided engine,
its notification FIFO endpoint, and (once windows exist) its RMA engine.
The paper's design keeps two cooperating progress engines (§VII): the
pre-existing one for two-sided/collectives and the new RMA one; the
delivery router below is where that cooperation happens — an RMA packet
or a FIFO done pokes the RMA progress engine; a two-sided payload fills
no RMA ready set, so it does not.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..network.shmem import NotificationFifo, NotificationPacket
from .p2p import P2P_PAYLOADS, P2PEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..network.fabric import Fabric
    from ..rma.engine.nonblocking import NonblockingEngine
    from ..simtime import Simulator

__all__ = ["RankMiddleware"]


class RankMiddleware:
    """Delivery router plus per-rank engine container."""

    __slots__ = ("sim", "fabric", "rank", "p2p", "fifo", "rma_engine")

    def __init__(self, sim: "Simulator", fabric: "Fabric", rank: int):
        self.sim = sim
        self.fabric = fabric
        self.rank = rank
        self.p2p = P2PEngine(sim, fabric, rank)
        self.fifo = NotificationFifo(fabric, rank)
        self.rma_engine: "NonblockingEngine | None" = None
        fabric.register_handler(rank, self.on_delivery)

    def attach_rma_engine(self, engine: "NonblockingEngine") -> None:
        """Install this rank's RMA engine (one per rank per runtime)."""
        if self.rma_engine is not None:
            raise RuntimeError(f"rank {self.rank} already has an RMA engine")
        self.rma_engine = engine

    def on_delivery(self, payload: Any, src: int) -> None:
        """Fabric delivery entry point for this rank.

        Payload classes are disjoint across the three layers, so the
        route is read off ``type(payload)``; an RMA packet or a FIFO
        done then pokes the RMA engine (§VII).
        """
        rma = self.rma_engine
        kind = type(payload)
        if kind in P2P_PAYLOADS:
            self.p2p.on_delivery(payload, src)
            return
        if kind is NotificationPacket:
            self.fifo.push(payload, src)
        elif rma is None or not rma.on_packet(payload, src):
            raise RuntimeError(
                f"rank {self.rank}: unroutable delivery {payload!r} from {src}"
            )
        if rma is not None:
            rma.poke()

    @property
    def attention(self):
        """This rank's host-attention gate."""
        return self.fabric.attention[self.rank]
