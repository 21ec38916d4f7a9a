"""Simulated interconnect: topology, cost model, fabric, flow control,
registration cache, and the intranode 64-bit notification FIFOs.

The fabric is the single shared transport under both the two-sided MPI
layer (:mod:`repro.mpi`) and all RMA engines (:mod:`repro.rma`), so that
performance differences between engines come only from synchronization
design, never from transport differences.
"""

from .fabric import Fabric
from .flowcontrol import CreditPool, FlowControl
from .model import NetworkModel
from .nic import AttentionGate, NicPorts
from .packets import SendTicket, ServiceKind
from .regcache import RegistrationCache
from .shmem import NotificationFifo, NotificationPacket
from .topology import ClusterTopology

__all__ = [
    "Fabric",
    "SendTicket",
    "FlowControl",
    "CreditPool",
    "NetworkModel",
    "NicPorts",
    "AttentionGate",
    "ServiceKind",
    "RegistrationCache",
    "ClusterTopology",
    "NotificationFifo",
    "NotificationPacket",
]
