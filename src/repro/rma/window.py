"""The RMA window: public API facade over the engines.

Blocking synchronizations are generators (drive with ``yield from``);
the paper's proposed nonblocking API (§V) is the ``i*`` family of plain
methods returning requests:

====================  =========================  =========================
Epoch style           Blocking                   Nonblocking (§V)
====================  =========================  =========================
fence                 ``fence``                  ``ifence``
GATS origin           ``start`` / ``complete``   ``istart`` / ``icomplete``
GATS target           ``post`` / ``wait_epoch``  ``ipost`` / ``iwait``
                      ``test_epoch`` (MPI-3)
passive single        ``lock`` / ``unlock``      ``ilock`` / ``iunlock``
passive all           ``lock_all``/``unlock_all``  ``ilock_all``/``iunlock_all``
flush                 ``flush[_local][_all]``    ``iflush[_local][_all]``
====================  =========================  =========================

Communication calls (``put``/``get``/``accumulate``/…) are plain methods
(nonblocking per MPI-3); request-based variants (``rput``/…) return
per-op requests and are restricted to passive-target epochs.

The baseline ("mvapich") engine raises
:class:`~repro.mpi.errors.UnsupportedOperation` for every ``i*`` routine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

import numpy as np

from ..mpi.datatypes import Datatype, from_numpy
from ..mpi.errors import RmaUsageError, UnsupportedOperation
from ..mpi.info import Info
from ..mpi.memory import WindowMemory
from ..mpi.ops import SUM, ReduceOp
from ..mpi.requests import CompletedRequest, Request
from .checker import RmaChecker
from .epoch import Epoch, EpochKind
from .flags import ReorderFlags
from .ops import OpKind, RmaOp
from .requests import FlushRequest, OpeningRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mpi.runtime import MPIRuntime
    from .state import WindowState

__all__ = [
    "Window",
    "WindowGroup",
    "LOCK_EXCLUSIVE",
    "LOCK_SHARED",
    "MODE_NOPRECEDE",
    "MODE_NOSUCCEED",
    "MODE_NOCHECK",
]

LOCK_EXCLUSIVE = 1
LOCK_SHARED = 2

MODE_NOPRECEDE = 1 << 0
MODE_NOSUCCEED = 1 << 1
#: The application asserts the matching synchronization already happened
#: (no grant wait / no lock-acquisition protocol) — MPI-3 §11.5.5.
MODE_NOCHECK = 1 << 2


class WindowGroup:
    """The collective identity of one window: shared by all ranks."""

    def __init__(self, runtime: "MPIRuntime", gid: int, name: str, info: Info):
        self.runtime = runtime
        self.gid = gid
        self.name = name
        self.info = info
        self.flags = ReorderFlags.from_info(info)
        self.ranks = tuple(range(runtime.nranks))
        self.windows: dict[int, "Window"] = {}
        #: Full semantics checker / race detector (None unless enabled by
        #: the ``repro.semantics_check`` info key; see :mod:`.checker`).
        self.checker: RmaChecker | None = RmaChecker.from_info(info)

    def attach(self, win: "Window") -> None:
        if win.rank in self.windows:
            raise RmaUsageError(f"rank {win.rank} attached twice to window {self.gid}")
        self.windows[win.rank] = win

    def window_of(self, rank: int) -> "Window":
        """The per-rank window object of a peer."""
        return self.windows[rank]

    def __repr__(self) -> str:
        return f"<WindowGroup #{self.gid} {self.name!r} ranks={len(self.ranks)}>"


class Window:
    """One rank's view of an RMA window."""

    __slots__ = ("group", "rank", "memory", "engine", "sim", "_state", "_fence_epoch",
                 "_gats_access", "_exposure", "_locks", "_lock_all")

    def __init__(self, group: WindowGroup, rank: int, nbytes: int):
        self.group = group
        self.rank = rank
        self.memory = WindowMemory(nbytes, rank)
        self.engine = group.runtime.engines[rank]
        self.sim = group.runtime.sim
        self._state: "WindowState | None" = None  # set by engine.register_window
        # Application-level open-epoch pointers.
        self._fence_epoch: Epoch | None = None
        self._gats_access: Epoch | None = None
        self._exposure: Epoch | None = None
        self._locks: dict[int, Epoch] = {}
        self._lock_all: Epoch | None = None

    # -- basics -----------------------------------------------------------
    @property
    def size(self) -> int:
        """Local window extent in bytes."""
        return self.memory.nbytes

    def view(self, dtype: Datatype | np.dtype | type = np.uint8, offset: int = 0,
             count: int | None = None) -> np.ndarray:
        """Typed view of the local window memory."""
        if not isinstance(dtype, Datatype):
            dtype = from_numpy(np.dtype(dtype))
        return self.memory.view(dtype, offset, count)

    @property
    def open_epoch_count(self) -> int:
        """Epochs currently open at application level on this window."""
        count = len(self._locks)
        count += sum(
            1
            for ep in (self._fence_epoch, self._gats_access, self._exposure, self._lock_all)
            if ep is not None
        )
        return count

    def free_check(self) -> None:
        """Validate that the window may be freed: MPI_WIN_FREE requires
        no epoch to be open at any process (local half; the collective
        barrier half lives in :meth:`MPIProcess.win_free`)."""
        if self.group.checker is not None:
            # Structured leak detection first: it covers a superset of
            # the checks below (plus dangling flushes, hosted locks and
            # undrained notifications) and names every leaked item.
            self.group.checker.on_win_free(self)
        if self.open_epoch_count:
            raise RmaUsageError(
                f"MPI_WIN_FREE with {self.open_epoch_count} epoch(s) still open"
            )
        if self._state is not None and self._state.live_epochs():
            raise RmaUsageError(
                "MPI_WIN_FREE with epochs still progressing internally; "
                "detect their completion first"
            )

    def _require_nonblocking(self, routine: str) -> None:
        if not self.engine.supports_nonblocking:
            raise UnsupportedOperation(
                f"{routine} requires the paper's nonblocking engine; "
                f"the {self.group.runtime.engine_name!r} engine is blocking-only"
            )

    def _require_notified(self, routine: str) -> None:
        if not self.engine.supports_notified_access:
            raise UnsupportedOperation(
                f"{routine} requires the counter-signal engine; the "
                f"{self.group.runtime.engine_name!r} engine has no "
                f"notified-access support"
            )

    def _blocking_wait(self, req: Request, call: str, epoch: Epoch | None):
        """Drive a blocking synchronization: wait on the internal request,
        recorded as a ``block`` span when the causal recorder is armed."""
        if req.done:
            return
        causal = self.group.runtime.causal
        if causal is None:
            yield req
            return
        sid = causal.begin("block", self.rank, self.group.gid,
                           epoch.uid if epoch is not None else -1, {"call": call})
        yield req
        causal.end(sid)

    # ======================================================================
    # Fence epochs
    # ======================================================================
    def _check_no_fence_epoch(self, what: str) -> None:
        """MPI-3 §11.5: access/exposure epochs at one process must be
        disjoint — no GATS or passive-target epoch may open while a
        fence epoch is open (close it with MODE_NOSUCCEED first)."""
        if self._fence_epoch is not None:
            raise RmaUsageError(
                f"{what} while a fence epoch is open; close it with "
                f"fence(MODE_NOSUCCEED) first"
            )

    def _fence_internal(self, assert_: int = 0) -> Request:
        closing: Request | None = None
        ep = self._fence_epoch
        if not (assert_ & MODE_NOSUCCEED) and (
            self._locks or self._lock_all or self._gats_access or self._exposure
        ):
            raise RmaUsageError(
                "cannot open a fence epoch while GATS or passive-target "
                "epochs are open on this window"
            )
        if ep is not None:
            if assert_ & MODE_NOPRECEDE:
                if ep.last_call_time is not None:
                    raise RmaUsageError(
                        "MODE_NOPRECEDE asserted but the fence epoch has RMA calls"
                    )
                self.engine.discard_fence(self, ep)
            else:
                closing = self.engine.close_epoch(self, ep)
            self._fence_epoch = None
        if not (assert_ & MODE_NOSUCCEED):
            self._fence_epoch = self.engine.open_fence(self)
        return closing if closing is not None else CompletedRequest(self.sim, "fence-open-only")

    def fence(self, assert_: int = 0) -> Generator[Any, Any, None]:
        """MPI_WIN_FENCE: close the current fence epoch (if any) and open
        the next (unless ``MODE_NOSUCCEED``)."""
        req = self._fence_internal(assert_)
        yield from self._blocking_wait(req, "fence", getattr(req, "epoch", None))

    def ifence(self, assert_: int = 0) -> Request:
        """MPI_WIN_IFENCE (§V): nonblocking fence with barrier semantics
        on completion whenever it closes an epoch (§VI rule 5)."""
        self._require_nonblocking("MPI_WIN_IFENCE")
        return self._fence_internal(assert_)

    # ======================================================================
    # GATS epochs
    # ======================================================================
    def _start_internal(
        self, group: tuple[int, ...] | list[int], assert_: int = 0
    ) -> OpeningRequest:
        group = tuple(group)
        if not group:
            raise RmaUsageError("MPI_WIN_START with an empty target group")
        if self._gats_access is not None:
            raise RmaUsageError("a GATS access epoch is already open on this window")
        if self._locks or self._lock_all is not None:
            raise RmaUsageError(
                "MPI_WIN_START while passive-target epochs are open "
                "(access epochs at one process must be disjoint)"
            )
        self._check_no_fence_epoch("MPI_WIN_START")
        for t in group:
            if t not in self.group.windows:
                raise RmaUsageError(f"start group contains unknown rank {t}")
        ep = self.engine.open_gats_access(self, group, nocheck=bool(assert_ & MODE_NOCHECK))
        self._gats_access = ep
        return OpeningRequest(self.sim, ep)

    def start(
        self, group: tuple[int, ...] | list[int], assert_: int = 0
    ) -> Generator[Any, Any, None]:
        """MPI_WIN_START (returns immediately in both engines, like all
        modern MPI libraries — §III).  ``MODE_NOCHECK`` skips the grant
        wait entirely."""
        req = self._start_internal(group, assert_)
        yield from self._blocking_wait(req, "start", req.epoch)

    def istart(self, group: tuple[int, ...] | list[int], assert_: int = 0) -> OpeningRequest:
        """MPI_WIN_ISTART (§V)."""
        self._require_nonblocking("MPI_WIN_ISTART")
        return self._start_internal(group, assert_)

    def _complete_internal(self) -> Request:
        ep = self._gats_access
        if ep is None:
            raise RmaUsageError("MPI_WIN_COMPLETE without an open access epoch")
        self._gats_access = None
        return self.engine.close_epoch(self, ep)

    def complete(self) -> Generator[Any, Any, None]:
        """MPI_WIN_COMPLETE: blocking close of the access epoch."""
        req = self._complete_internal()
        yield from self._blocking_wait(req, "complete", getattr(req, "epoch", None))

    def icomplete(self) -> Request:
        """MPI_WIN_ICOMPLETE (§V): close the access epoch without
        waiting; detect completion via the request."""
        self._require_nonblocking("MPI_WIN_ICOMPLETE")
        return self._complete_internal()

    def _post_internal(self, group: tuple[int, ...] | list[int]) -> OpeningRequest:
        group = tuple(group)
        if not group:
            raise RmaUsageError("MPI_WIN_POST with an empty origin group")
        if self._exposure is not None:
            raise RmaUsageError("an exposure epoch is already open on this window")
        self._check_no_fence_epoch("MPI_WIN_POST")
        ep = self.engine.open_exposure(self, group)
        self._exposure = ep
        return OpeningRequest(self.sim, ep)

    def post(self, group: tuple[int, ...] | list[int]) -> Generator[Any, Any, None]:
        """MPI_WIN_POST (nonblocking already in MPI-3.0)."""
        req = self._post_internal(group)
        yield from self._blocking_wait(req, "post", req.epoch)

    def ipost(self, group: tuple[int, ...] | list[int]) -> OpeningRequest:
        """MPI_WIN_IPOST (§V — provided for uniformity)."""
        self._require_nonblocking("MPI_WIN_IPOST")
        return self._post_internal(group)

    def _wait_internal(self) -> Request:
        ep = self._exposure
        if ep is None:
            raise RmaUsageError("MPI_WIN_WAIT without an open exposure epoch")
        self._exposure = None
        return self.engine.close_epoch(self, ep)

    def wait_epoch(self) -> Generator[Any, Any, None]:
        """MPI_WIN_WAIT: blocking close of the exposure epoch."""
        req = self._wait_internal()
        yield from self._blocking_wait(req, "wait", getattr(req, "epoch", None))

    def iwait(self) -> Request:
        """MPI_WIN_IWAIT (§V): unlike MPI_WIN_TEST, allows asynchronous,
        wait-free initiation of subsequent exposure epochs."""
        self._require_nonblocking("MPI_WIN_IWAIT")
        return self._wait_internal()

    def test_epoch(self) -> bool:
        """MPI_WIN_TEST: nonblocking probe; True ends the exposure epoch.

        Not ``test``: that would collide with
        :meth:`Request.test <repro.mpi.requests.Request.test>`.
        """
        ep = self._exposure
        if ep is None:
            raise RmaUsageError("MPI_WIN_TEST without an open exposure epoch")
        if self.engine.test_exposure(self, ep):
            self.engine.close_epoch(self, ep)
            self._exposure = None
            return True
        return False

    # ======================================================================
    # Passive-target epochs
    # ======================================================================
    def _lock_internal(self, target: int, lock_type: int, assert_: int = 0) -> OpeningRequest:
        if lock_type not in (LOCK_EXCLUSIVE, LOCK_SHARED):
            raise RmaUsageError(f"invalid lock type {lock_type}")
        if target not in self.group.windows:
            raise RmaUsageError(f"lock target {target} unknown")
        if target in self._locks:
            raise RmaUsageError(f"target {target} already locked by this window")
        if self._lock_all is not None:
            raise RmaUsageError("cannot lock a single target while lock_all is open")
        if self._gats_access is not None:
            raise RmaUsageError(
                "MPI_WIN_LOCK while a GATS access epoch is open "
                "(access epochs at one process must be disjoint)"
            )
        self._check_no_fence_epoch("MPI_WIN_LOCK")
        ep = self.engine.open_lock(
            self,
            target,
            exclusive=(lock_type == LOCK_EXCLUSIVE),
            nocheck=bool(assert_ & MODE_NOCHECK),
        )
        self._locks[target] = ep
        return OpeningRequest(self.sim, ep)

    def lock(
        self, target: int, lock_type: int = LOCK_EXCLUSIVE, assert_: int = 0
    ) -> Generator[Any, Any, None]:
        """MPI_WIN_LOCK (returns immediately; acquisition is internal).
        ``MODE_NOCHECK`` skips the lock protocol — the application
        guarantees no conflicting lock exists."""
        req = self._lock_internal(target, lock_type, assert_)
        yield from self._blocking_wait(req, "lock", req.epoch)

    def ilock(
        self, target: int, lock_type: int = LOCK_EXCLUSIVE, assert_: int = 0
    ) -> OpeningRequest:
        """MPI_WIN_ILOCK (§V)."""
        self._require_nonblocking("MPI_WIN_ILOCK")
        return self._lock_internal(target, lock_type, assert_)

    def _unlock_internal(self, target: int) -> Request:
        ep = self._locks.pop(target, None)
        if ep is None:
            raise RmaUsageError(f"MPI_WIN_UNLOCK of unlocked target {target}")
        return self.engine.close_epoch(self, ep)

    def unlock(self, target: int) -> Generator[Any, Any, None]:
        """MPI_WIN_UNLOCK: blocking close of the lock epoch (operations
        are complete at both origin and target on return)."""
        req = self._unlock_internal(target)
        yield from self._blocking_wait(req, "unlock", getattr(req, "epoch", None))

    def iunlock(self, target: int) -> Request:
        """MPI_WIN_IUNLOCK (§V): close without waiting; voids the Late
        Unlock tradeoff (§IV-C5)."""
        self._require_nonblocking("MPI_WIN_IUNLOCK")
        return self._unlock_internal(target)

    def _lock_all_internal(self, assert_: int = 0) -> OpeningRequest:
        if self._lock_all is not None:
            raise RmaUsageError("lock_all epoch already open")
        if self._locks:
            raise RmaUsageError("cannot lock_all while single-target locks are held")
        if self._gats_access is not None:
            raise RmaUsageError(
                "MPI_WIN_LOCK_ALL while a GATS access epoch is open "
                "(access epochs at one process must be disjoint)"
            )
        self._check_no_fence_epoch("MPI_WIN_LOCK_ALL")
        ep = self.engine.open_lock_all(self, nocheck=bool(assert_ & MODE_NOCHECK))
        self._lock_all = ep
        return OpeningRequest(self.sim, ep)

    def lock_all(self, assert_: int = 0) -> Generator[Any, Any, None]:
        """MPI_WIN_LOCK_ALL (shared lock on every rank)."""
        req = self._lock_all_internal(assert_)
        yield from self._blocking_wait(req, "lock_all", req.epoch)

    def ilock_all(self, assert_: int = 0) -> OpeningRequest:
        """MPI_WIN_ILOCK_ALL (§V)."""
        self._require_nonblocking("MPI_WIN_ILOCK_ALL")
        return self._lock_all_internal(assert_)

    def _unlock_all_internal(self) -> Request:
        ep = self._lock_all
        if ep is None:
            raise RmaUsageError("MPI_WIN_UNLOCK_ALL without an open lock_all epoch")
        self._lock_all = None
        return self.engine.close_epoch(self, ep)

    def unlock_all(self) -> Generator[Any, Any, None]:
        """MPI_WIN_UNLOCK_ALL."""
        req = self._unlock_all_internal()
        yield from self._blocking_wait(req, "unlock_all", getattr(req, "epoch", None))

    def iunlock_all(self) -> Request:
        """MPI_WIN_IUNLOCK_ALL (§V)."""
        self._require_nonblocking("MPI_WIN_IUNLOCK_ALL")
        return self._unlock_all_internal()

    # ======================================================================
    # Flushes
    # ======================================================================
    def _passive_epoch_for(self, target: int | None) -> Epoch:
        if target is not None:
            if target not in self.group.windows:
                raise RmaUsageError(f"flush target {target} unknown")
            if target in self._locks:
                return self._locks[target]
        if self._lock_all is not None:
            return self._lock_all
        if target is None and len(self._locks) == 1:
            return next(iter(self._locks.values()))
        raise RmaUsageError(
            f"flush requires an open passive-target epoch covering "
            f"{'all targets' if target is None else f'rank {target}'}"
        )

    def _flush(self, target: int | None, local: bool) -> FlushRequest:
        """The one flush: the engine's age-stamped request (§VII-C).  A
        blocking flush waits on it before any further RMA call, so its
        stamp covers exactly the ops pending at the call."""
        return self.engine.make_flush(self, self._passive_epoch_for(target), target, local)

    def flush(self, target: int) -> Generator[Any, Any, None]:
        """MPI_WIN_FLUSH: complete all outstanding ops to ``target``."""
        req = self._flush(target, False)
        yield from self._blocking_wait(req, "flush", req.epoch)

    def flush_local(self, target: int) -> Generator[Any, Any, None]:
        """MPI_WIN_FLUSH_LOCAL: locally complete ops to ``target``."""
        req = self._flush(target, True)
        yield from self._blocking_wait(req, "flush_local", req.epoch)

    def flush_all(self) -> Generator[Any, Any, None]:
        """MPI_WIN_FLUSH_ALL."""
        req = self._flush(None, False)
        yield from self._blocking_wait(req, "flush_all", req.epoch)

    def flush_local_all(self) -> Generator[Any, Any, None]:
        """MPI_WIN_FLUSH_LOCAL_ALL."""
        req = self._flush(None, True)
        yield from self._blocking_wait(req, "flush_local_all", req.epoch)

    def iflush(self, target: int) -> Request:
        """MPI_WIN_IFLUSH (§V): age-stamped nonblocking flush; new RMA
        calls may be issued before it completes (§VII-C)."""
        self._require_nonblocking("MPI_WIN_IFLUSH")
        return self._flush(target, False)

    def iflush_local(self, target: int) -> Request:
        """MPI_WIN_IFLUSH_LOCAL (§V)."""
        self._require_nonblocking("MPI_WIN_IFLUSH_LOCAL")
        return self._flush(target, True)

    def iflush_all(self) -> Request:
        """MPI_WIN_IFLUSH_ALL (§V)."""
        self._require_nonblocking("MPI_WIN_IFLUSH_ALL")
        return self._flush(None, False)

    def iflush_local_all(self) -> Request:
        """MPI_WIN_IFLUSH_LOCAL_ALL (§V)."""
        self._require_nonblocking("MPI_WIN_IFLUSH_LOCAL_ALL")
        return self._flush(None, True)

    # ======================================================================
    # Communication calls
    # ======================================================================
    def _epoch_for(self, target: int) -> Epoch:
        """Route a communication call to the open epoch covering
        ``target`` (lock > lock_all > GATS > fence)."""
        ep = self._locks.get(target)
        if ep is not None:
            return ep
        if self._lock_all is not None:
            return self._lock_all
        if self._gats_access is not None:
            if target not in self._gats_access.targets:
                raise RmaUsageError(
                    f"rank {target} is not in the access epoch's target group "
                    f"{self._gats_access.targets}"
                )
            return self._gats_access
        if self._fence_epoch is not None:
            return self._fence_epoch
        raise RmaUsageError(f"RMA call to {target} outside any epoch")

    def _check_target_range(self, target: int, disp: int, nbytes: int) -> None:
        try:
            tsize = self.group.windows[target].memory.nbytes
        except KeyError:
            raise RmaUsageError(f"RMA target {target} unknown") from None
        if disp < 0 or nbytes < 0 or disp + nbytes > tsize:
            raise RmaUsageError(
                f"target range [{disp}, {disp + nbytes}) outside rank {target}'s "
                f"window of {tsize} bytes"
            )

    def _make_op(
        self,
        kind: OpKind,
        target: int,
        disp: int,
        nbytes: int,
        dtype: Datatype,
        reduce_op: ReduceOp | None = None,
        data: np.ndarray | None = None,
        compare: np.ndarray | None = None,
        result_buf: np.ndarray | None = None,
        request: bool = False,
        notify_target: int | None = None,
    ) -> Request | None:
        """Record one op; ``request=True`` makes and returns the per-op
        request of the ``r*`` / ``*_notify`` forms (MPI-3 §11.3)."""
        ep = self._epoch_for(target)
        req = None
        if request:
            if (
                ep.kind not in (EpochKind.LOCK, EpochKind.LOCK_ALL)
                and not self.engine.supports_notified_access
            ):
                raise RmaUsageError(
                    "request-based RMA operations are reserved for passive-target epochs"
                )
            req = Request(self.sim, ("%s-req", kind.value))
        self._check_target_range(target, disp, nbytes)
        op = RmaOp(
            kind,
            self.rank,
            target,
            disp,
            nbytes,
            ep,
            age=self.engine.next_age(self),
            dtype=dtype,
            reduce_op=reduce_op,
            data=data,
            compare=compare,
            result_buf=result_buf,
            request=req,
        )
        # Must be set before add_op: the engine may issue the op (and
        # send its same-lane notification) synchronously inside it.
        op.notify_target = notify_target
        self.engine.add_op(self, ep, op)
        return req

    @staticmethod
    def _capture(data: np.ndarray) -> tuple[np.ndarray, Datatype]:
        arr = np.ascontiguousarray(data)
        return arr.copy(), from_numpy(arr.dtype)

    def put(self, data: np.ndarray, target_rank: int, target_disp: int = 0) -> None:
        """MPI_PUT: write ``data`` into the target window at ``target_disp``."""
        arr, dtype = self._capture(data)
        self._make_op(OpKind.PUT, target_rank, target_disp, arr.nbytes, dtype, data=arr)

    def get(self, buffer: np.ndarray, target_rank: int, target_disp: int = 0) -> None:
        """MPI_GET: read ``buffer.nbytes`` target bytes into ``buffer``
        (valid only after the epoch completes / a flush)."""
        dtype = from_numpy(np.asarray(buffer).dtype)
        self._make_op(
            OpKind.GET, target_rank, target_disp, buffer.nbytes, dtype, result_buf=buffer
        )

    def accumulate(
        self,
        data: np.ndarray,
        target_rank: int,
        target_disp: int = 0,
        op: ReduceOp = SUM,
    ) -> None:
        """MPI_ACCUMULATE: elementwise-atomic reduction into the target."""
        arr, dtype = self._capture(data)
        self._make_op(
            OpKind.ACCUMULATE, target_rank, target_disp, arr.nbytes, dtype,
            reduce_op=op, data=arr,
        )

    def get_accumulate(
        self,
        data: np.ndarray,
        result: np.ndarray,
        target_rank: int,
        target_disp: int = 0,
        op: ReduceOp = SUM,
    ) -> None:
        """MPI_GET_ACCUMULATE: fetch the old target contents and reduce."""
        arr, dtype = self._capture(data)
        self._make_op(
            OpKind.GET_ACCUMULATE, target_rank, target_disp, arr.nbytes, dtype,
            reduce_op=op, data=arr, result_buf=result,
        )

    def fetch_and_op(
        self,
        value: np.ndarray,
        result: np.ndarray,
        target_rank: int,
        target_disp: int = 0,
        op: ReduceOp = SUM,
    ) -> None:
        """MPI_FETCH_AND_OP: single-element atomic read-modify-write."""
        arr, dtype = self._capture(np.asarray(value).reshape(1))
        self._make_op(
            OpKind.FETCH_AND_OP, target_rank, target_disp, dtype.size, dtype,
            reduce_op=op, data=arr, result_buf=result,
        )

    def compare_and_swap(
        self,
        compare: np.ndarray,
        new: np.ndarray,
        result: np.ndarray,
        target_rank: int,
        target_disp: int = 0,
    ) -> None:
        """MPI_COMPARE_AND_SWAP."""
        cmp_arr, dtype = self._capture(np.asarray(compare).reshape(1))
        new_arr, _ = self._capture(np.asarray(new).reshape(1))
        self._make_op(
            OpKind.COMPARE_AND_SWAP, target_rank, target_disp, dtype.size, dtype,
            data=new_arr, compare=cmp_arr, result_buf=result,
        )

    # -- request-based variants ------------------------------------------------
    def rput(self, data: np.ndarray, target_rank: int, target_disp: int = 0) -> Request:
        """MPI_RPUT: like put, with a per-op request (local completion)."""
        arr, dtype = self._capture(data)
        return self._make_op(
            OpKind.PUT, target_rank, target_disp, arr.nbytes, dtype, data=arr, request=True
        )

    def rget(self, buffer: np.ndarray, target_rank: int, target_disp: int = 0) -> Request:
        """MPI_RGET: completion means the data is available."""
        dtype = from_numpy(np.asarray(buffer).dtype)
        return self._make_op(
            OpKind.GET, target_rank, target_disp, buffer.nbytes, dtype,
            result_buf=buffer, request=True,
        )

    def raccumulate(
        self,
        data: np.ndarray,
        target_rank: int,
        target_disp: int = 0,
        op: ReduceOp = SUM,
    ) -> Request:
        """MPI_RACCUMULATE."""
        arr, dtype = self._capture(data)
        return self._make_op(
            OpKind.ACCUMULATE, target_rank, target_disp, arr.nbytes, dtype,
            reduce_op=op, data=arr, request=True,
        )

    def rget_accumulate(
        self,
        data: np.ndarray,
        result: np.ndarray,
        target_rank: int,
        target_disp: int = 0,
        op: ReduceOp = SUM,
    ) -> Request:
        """MPI_RGET_ACCUMULATE."""
        arr, dtype = self._capture(data)
        return self._make_op(
            OpKind.GET_ACCUMULATE, target_rank, target_disp, arr.nbytes, dtype,
            reduce_op=op, data=arr, result_buf=result, request=True,
        )

    # ======================================================================
    # Notified access (foMPI-style; counter-signal engine only)
    # ======================================================================
    def signal(self, target: int) -> None:
        """Send one application-level counter signal to ``target``
        (consumed there by :meth:`notify_wait`/:meth:`test_signal`).
        Self-signals (``target == rank``) are legal and synchronous."""
        self._require_notified("Window.signal")
        self.engine.signal_peer(self, target)

    def test_signal(self, source: int, count: int = 1) -> bool:
        """Nonblocking probe: consume ``count`` signals from ``source``
        if that many have arrived unconsumed; False leaves them alone."""
        self._require_notified("Window.test_signal")
        return self.engine.test_notify(self, source, count)

    def inotify_wait(self, source: int, count: int = 1) -> Request:
        """Request-first :meth:`notify_wait`: reserves the next ``count``
        signals from ``source`` immediately; the request completes when
        they have all arrived."""
        self._require_notified("Window.inotify_wait")
        return self.engine.make_notify_wait(self, source, count)

    def notify_wait(self, source: int, count: int = 1) -> Generator[Any, Any, None]:
        """Block until ``count`` further signals from ``source`` arrive
        (foMPI's ``MPI_Notify_wait``)."""
        yield from self._blocking_wait(self.inotify_wait(source, count), "notify_wait", None)

    def put_notify(
        self, data: np.ndarray, target_rank: int, target_disp: int = 0
    ) -> Request:
        """foMPI-style notified put: like :meth:`rput`, plus one signal
        delivered to the target *after* the data is applied there (the
        signal rides the same FIFO fabric lane as the put payload, so no
        extra round trip orders it)."""
        self._require_notified("Window.put_notify")
        arr, dtype = self._capture(data)
        return self._make_op(
            OpKind.PUT, target_rank, target_disp, arr.nbytes, dtype, data=arr,
            request=True, notify_target=target_rank,
        )

    def get_notify(
        self, buffer: np.ndarray, target_rank: int, target_disp: int = 0
    ) -> Request:
        """foMPI-style notified get: like :meth:`rget`, plus one signal
        delivered to the target once the data has arrived back at the
        origin (the target learns its memory was read)."""
        self._require_notified("Window.get_notify")
        dtype = from_numpy(np.asarray(buffer).dtype)
        return self._make_op(
            OpKind.GET, target_rank, target_disp, buffer.nbytes, dtype,
            result_buf=buffer, request=True, notify_target=target_rank,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Window #{self.group.gid} rank={self.rank} {self.size}B>"
