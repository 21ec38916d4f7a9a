"""MPI one-sided communication with entirely nonblocking epochs.

This package is the paper's contribution: windows, the five epoch
styles, the proposed ``MPI_WIN_I*`` nonblocking synchronization API
(§V), deferred epochs and ω-triple O(1) matching (§VII), the 7-step RMA
progress engine (§VII-D), the §VI-B reorder flags and the semantics
checker / race detector that enforces §VI-C.
"""

from .checker import (
    SEMANTICS_CHECK_INFO_KEY,
    SEMANTICS_MODE_INFO_KEY,
    RmaChecker,
    RmaSemanticsError,
    Violation,
    ViolationKind,
)
from .epoch import Epoch, EpochKind, EpochState
from .flags import A_A_A_R, A_A_E_R, E_A_A_R, E_A_E_R, ReorderFlags
from .locks import LockManager, LockWaiter
from .ops import OpKind, RmaOp
from .requests import ClosingRequest, FlushRequest, OpeningRequest
from .window import (
    LOCK_EXCLUSIVE,
    LOCK_SHARED,
    MODE_NOCHECK,
    MODE_NOPRECEDE,
    MODE_NOSUCCEED,
    Window,
    WindowGroup,
)

__all__ = [
    "Window",
    "WindowGroup",
    "LOCK_EXCLUSIVE",
    "LOCK_SHARED",
    "MODE_NOCHECK",
    "MODE_NOPRECEDE",
    "MODE_NOSUCCEED",
    "Epoch",
    "EpochKind",
    "EpochState",
    "ReorderFlags",
    "A_A_A_R",
    "A_A_E_R",
    "E_A_E_R",
    "E_A_A_R",
    "OpKind",
    "RmaOp",
    "OpeningRequest",
    "ClosingRequest",
    "FlushRequest",
    "LockManager",
    "LockWaiter",
    "RmaChecker",
    "RmaSemanticsError",
    "Violation",
    "ViolationKind",
    "SEMANTICS_CHECK_INFO_KEY",
    "SEMANTICS_MODE_INFO_KEY",
]
