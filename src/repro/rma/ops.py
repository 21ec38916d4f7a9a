"""RMA operation descriptors.

Every communication call inside an epoch creates one :class:`RmaOp`.
Ops carry a monotonically increasing *age* (§VII-C) used by nonblocking
flush requests, the captured operand data, and delivery bookkeeping.
The descriptor moves through three states: *recorded* (the epoch is
deferred or the target not yet granted), *issued* (on the wire) and
*delivered* (applied at the target / result back at the origin); its
timestamps are the state, ``None`` meaning "not yet".
"""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..mpi.datatypes import BYTE, Datatype
from ..mpi.ops import ReduceOp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mpi.requests import Request
    from .epoch import Epoch

__all__ = ["OpKind", "RmaOp"]

_op_uids = itertools.count()


class OpKind(enum.Enum):
    """RMA communication call kinds."""

    PUT = "put"
    GET = "get"
    ACCUMULATE = "accumulate"
    GET_ACCUMULATE = "get_accumulate"
    FETCH_AND_OP = "fetch_and_op"
    COMPARE_AND_SWAP = "compare_and_swap"

    @property
    def writes_target(self) -> bool:
        """Whether the op can modify target memory (§VI-B hazard set)."""
        return self is not OpKind.GET

    @property
    def is_atomic(self) -> bool:
        """Accumulate-family ops (elementwise atomic at the target)."""
        return self in (
            OpKind.ACCUMULATE,
            OpKind.GET_ACCUMULATE,
            OpKind.FETCH_AND_OP,
            OpKind.COMPARE_AND_SWAP,
        )


class RmaOp:
    """One RMA communication call, from recording to delivery."""

    __slots__ = (
        "uid",
        "age",
        "kind",
        "origin",
        "target",
        "target_disp",
        "nbytes",
        "dtype",
        "reduce_op",
        "data",
        "compare",
        "result_buf",
        "epoch",
        "issue_time",
        "local_time",
        "deliver_time",
        "request",
        "notify_target",
        "causal_sid",
    )

    def __init__(
        self,
        kind: OpKind,
        origin: int,
        target: int,
        target_disp: int,
        nbytes: int,
        epoch: "Epoch",
        age: int,
        dtype: Datatype = BYTE,
        reduce_op: ReduceOp | None = None,
        data: np.ndarray | None = None,
        compare: np.ndarray | None = None,
        result_buf: np.ndarray | None = None,
        request: Optional["Request"] = None,
    ):
        if nbytes < 0:
            raise ValueError(f"negative op size: {nbytes}")
        self.uid = next(_op_uids)
        self.age = age
        self.kind = kind
        self.origin = origin
        self.target = target
        self.target_disp = target_disp
        self.nbytes = nbytes
        self.dtype = dtype
        self.reduce_op = reduce_op
        #: Operand captured at call time (MPI forbids touching the origin
        #: buffer until completion, so call-time capture is conformant).
        self.data = data
        self.compare = compare
        #: Caller-provided array that result-bearing ops fill at delivery;
        #: such an op is locally complete only when its result lands.
        self.result_buf = result_buf
        self.epoch = epoch
        #: Virtual time the op went on the wire (None: still recorded).
        self.issue_time: float | None = None
        #: Local completion: origin buffer reusable.
        self.local_time: float | None = None
        #: Remote completion: applied at target; result back for gets.
        self.deliver_time: float | None = None
        #: Request handle for request-based variants (rput/rget/...).
        self.request = request
        #: Notified access (``put_notify``/``get_notify``): rank to send
        #: a NOTIFY signal to once the op's data movement is ordered /
        #: complete (None for plain ops; counter-signal engine only).
        self.notify_target: int | None = None
        #: Causal span id when the run records spans (repro.obs.causal).
        self.causal_sid: int | None = None

    @property
    def target_range(self) -> tuple[int, int]:
        """Byte range [start, end) touched in the target window."""
        return self.target_disp, self.target_disp + self.nbytes

    def overlaps(self, other: "RmaOp") -> bool:
        """Whether the two ops touch a common target byte."""
        if self.target != other.target:
            return False
        a_start, a_end = self.target_range
        b_start, b_end = other.target_range
        return a_start < b_end and b_start < a_end

    def conflicts_with(self, other: "RmaOp") -> bool:
        """MPI-3 §11.7 conflicting-access test for the semantics checker.

        Two ops conflict when they overlap at the target, at least one
        writes target memory, and they are not both accumulate-family
        ops using the same reduction (concurrent same-op accumulates are
        the one overlap the standard blesses)."""
        if not self.overlaps(other):
            return False
        if not (self.kind.writes_target or other.kind.writes_target):
            return False
        if (
            self.kind.is_atomic
            and other.kind.is_atomic
            and self.reduce_op is other.reduce_op
        ):
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = ("delivered" if self.deliver_time is not None
                 else "issued" if self.issue_time is not None else "recorded")
        return (
            f"<RmaOp #{self.uid} {self.kind.value} {self.origin}->{self.target} "
            f"disp={self.target_disp} {self.nbytes}B age={self.age} {state}>"
        )
