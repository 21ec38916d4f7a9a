"""Persistent RMA collectives over nonblocking epochs.

``plan_alltoallv`` / ``plan_allgather`` / ``plan_allreduce`` compile a
collective *once* — window allocation, peer lists, receive layout, the
epoch chain shape — into a :class:`PersistentColl`; each subsequent
``start()/test()/wait()`` re-executes the prebuilt schedule with zero
per-invocation setup (the persistent-collective model of "Analyzing
Persistent Alltoallv RMA Implementations", see PAPERS.md, carried onto
the paper's nonblocking epochs).

Three epoch styles; the engine's capabilities pick one
(:func:`_style_of`):

==============  ======================  =====================================
style           engines                 per-invocation protocol
==============  ======================  =====================================
``"fence"``     mvapich, adaptive       one *persistent* fence epoch chain:
                                        the plan opens the first epoch; each
                                        invocation puts and fences (closing
                                        epoch ``k``, opening ``k+1``);
                                        ``finish()`` closes the chain with
                                        ``MODE_NOSUCCEED``.
``"pscw"``      nonblocking             per-invocation GATS pair toward the
                                        actual peers only: ``ipost`` /
                                        ``istart`` / puts / ``icomplete`` /
                                        ``iwait`` issued back to back — a
                                        deferred-epoch chain the §VII engine
                                        progresses in the background.
``"notify"``    signal                  one persistent ``lock_all`` epoch;
                                        data moves as foMPI-style
                                        ``put_notify`` with a credit signal
                                        back per invocation — no epoch
                                        traffic at all after the plan.
==============  ======================  =====================================

Orthogonally, the *drive* follows the engine: with ``nonblocking`` (the
§V API available), ``start()`` issues the whole chain immediately and
``wait()`` only completes it — compute between the two overlaps the
collective.  On blocking engines ``start()`` merely stages the data and
``wait()`` runs the blocking calls, so nothing overlaps: exactly the
gap the ``coll_overlap`` bench figure measures.

Every style writes the same double-buffered window layout (see
:mod:`repro.coll.schedule`), so the final window bytes — part of the
differential oracle's strict digest — agree across all four engines.

All ranks must call the ``plan_*`` functions and every ``start/wait``
collectively, in the same order (MPI semantics for persistent
collectives); a rank may lag its peers by at most the one invocation
the epoch protocols themselves allow.
"""

from __future__ import annotations

from typing import Any, Generator, Sequence

import numpy as np

from ..mpi.errors import RmaUsageError, UnsupportedOperation
from ..mpi.requests import waitall
from ..rma.flags import A_A_E_R
from ..rma.window import MODE_NOSUCCEED, Window
from .schedule import CollSchedule, build_schedule, uniform_counts

__all__ = [
    "PersistentColl",
    "PersistentAllgather",
    "PersistentAllreduce",
    "plan_alltoallv",
    "plan_allgather",
    "plan_allreduce",
]

#: Deterministic elementwise reductions in fixed rank order.
_REDUCERS = {
    "sum": np.add.reduce,
    "max": np.maximum.reduce,
    "min": np.minimum.reduce,
}


def _style_of(engine) -> str:
    """The capability ladder: signal engines use notified access,
    engines with the §V API use PSCW chains, blocking baselines use the
    fence variant."""
    if engine.supports_notified_access:
        return "notify"
    if engine.supports_nonblocking:
        return "pscw"
    return "fence"


class PersistentColl:
    """A compiled alltoallv, re-executable with ``start/test/wait``.

    Built by :func:`plan_alltoallv`; never constructed directly.
    """

    def __init__(self, proc, win: Window, sched: CollSchedule,
                 style: str, nonblocking: bool):
        self.proc = proc
        self.window = win
        self.schedule = sched
        self.style = style
        self.nonblocking = nonblocking
        #: Completed invocations (the next one uses slot invocations % 2).
        self.invocations = 0
        self._active = False
        self._staged: list[np.ndarray] | None = None
        self._reqs: list = []
        #: notify style: sources whose data notification test() consumed.
        self._notified: set[int] = set()
        self._finished = False

    @property
    def engine_name(self) -> str:
        return self.window.group.runtime.engine_name

    # -- data marshalling ----------------------------------------------------

    def _stage(self, send: Sequence[np.ndarray | None]) -> list[np.ndarray]:
        """Validate and snapshot one invocation's contribution blocks."""
        s = self.schedule
        if len(send) != s.nranks:
            raise ValueError(f"need {s.nranks} send blocks, got {len(send)}")
        blocks = []
        for j, block in enumerate(send):
            want = s.send_counts[j]
            arr = (np.zeros(0, s.dtype) if block is None
                   else np.ascontiguousarray(block, dtype=s.dtype).reshape(-1))
            if arr.size != want:
                raise ValueError(
                    f"send block for rank {j} has {arr.size} elements, "
                    f"schedule says {want}"
                )
            blocks.append(arr.copy())
        return blocks

    # -- lifecycle -----------------------------------------------------------

    def start(self, send: Sequence[np.ndarray | None]) -> None:
        """Begin one invocation with this rank's contribution blocks
        (``send[j]`` holds the ``counts[rank][j]`` elements bound for
        rank ``j``).  Plain call; on nonblocking engines the entire
        epoch chain is issued here."""
        if self._finished:
            raise RmaUsageError("PersistentColl.start() after finish()")
        if self._active:
            raise RmaUsageError(
                "PersistentColl.start() while the previous invocation is "
                "still pending (wait() it first)"
            )
        self._staged = self._stage(send)
        self._active = True
        self._reqs = []
        self._notified.clear()
        if self.nonblocking:
            self._issue(self._staged)

    def _issue(self, blocks: list[np.ndarray]) -> None:
        """Issue the nonblocking epoch chain for the current invocation."""
        win, s, k = self.window, self.schedule, self.invocations
        if self.style == "pscw":
            if s.recv_peers:
                win.ipost(s.recv_peers)
                exposure_done = win.iwait()
            if s.send_peers:
                win.istart(s.send_peers)
                for j in s.send_peers:
                    win.put(blocks[j], j, s.put_disp(j, k))
                self._reqs.append(win.icomplete())
            if s.recv_peers:
                self._reqs.append(exposure_done)
        else:  # notify
            for j in s.send_peers:
                self._reqs.append(win.put_notify(blocks[j], j, s.put_disp(j, k)))

    def test(self) -> bool:
        """Poll the current invocation (nonblocking drive only): True
        once the data phase is observably complete at this rank.
        ``wait()`` must still be called to retire the invocation."""
        if not self.nonblocking:
            raise UnsupportedOperation(
                "PersistentColl.test() requires the nonblocking drive "
                f"(engine {self.engine_name!r} is blocking-only)"
            )
        if not self._active:
            raise RmaUsageError("PersistentColl.test() without start()")
        if not all(r.done for r in self._reqs):
            return False
        if self.style == "notify":
            win, s = self.window, self.schedule
            for i in s.recv_peers:
                if i not in self._notified and win.test_signal(i, 1):
                    self._notified.add(i)
            return len(self._notified) == len(s.recv_peers)
        return True

    def wait(self) -> Generator[Any, Any, list[np.ndarray]]:
        """Complete the current invocation; returns the received blocks
        (``out[i]`` holds the ``counts[i][rank]`` elements rank ``i``
        contributed, this rank's own block included)."""
        if not self._active:
            raise RmaUsageError("PersistentColl.wait() without start()")
        win, s, k = self.window, self.schedule, self.invocations
        blocks = self._staged
        assert blocks is not None

        if not self.nonblocking:
            yield from self._drive_blocking(blocks)
        else:
            if self._reqs:
                yield from waitall(self._reqs)
            if self.style == "notify":
                for i in s.recv_peers:
                    if i not in self._notified:
                        yield from win.notify_wait(i, 1)

        # Land my own contribution locally (same bytes a self-put would
        # write, without a self-directed epoch).
        slot = win.view(s.dtype, s.slot_disp(k), max(s.slot_elems, 1))
        mine = blocks[s.rank]
        if mine.size:
            off = s.recv_offsets[s.rank]
            slot[off : off + mine.size] = mine
        out = [
            slot[s.recv_offsets[i] : s.recv_offsets[i] + s.recv_counts[i]].copy()
            for i in range(s.nranks)
        ]

        if self.style == "notify":
            # Credit handshake: tell my sources their block is consumed,
            # then require the same of my targets — after this no peer
            # can overwrite a slot this rank has not finished reading.
            for i in s.recv_peers:
                win.signal(i)
            for j in s.send_peers:
                yield from win.notify_wait(j, 1)

        self._active = False
        self._staged = None
        self._reqs = []
        self.invocations += 1
        return out

    def _drive_blocking(self, blocks: list[np.ndarray]) -> Generator[Any, Any, None]:
        """The blocking-engine path: the whole epoch runs inside wait()."""
        win, s, k = self.window, self.schedule, self.invocations
        if self.style == "fence":
            for j in s.send_peers:
                win.put(blocks[j], j, s.put_disp(j, k))
            yield from win.fence()
        elif self.style == "pscw":
            if s.recv_peers:
                yield from win.post(s.recv_peers)
            if s.send_peers:
                yield from win.start(s.send_peers)
                for j in s.send_peers:
                    win.put(blocks[j], j, s.put_disp(j, k))
                yield from win.complete()
            if s.recv_peers:
                yield from win.wait_epoch()
        else:  # notify, driven blocking
            for j in s.send_peers:
                self._reqs.append(win.put_notify(blocks[j], j, s.put_disp(j, k)))
            for i in s.recv_peers:
                yield from win.notify_wait(i, 1)
            if self._reqs:
                yield from waitall(self._reqs)

    def finish(self) -> Generator[Any, Any, None]:
        """Close the plan's persistent epoch state (collective for the
        fence style).  The plan cannot be started again afterwards; the
        window stays alive (and in the outcome digest)."""
        if self._active:
            raise RmaUsageError("PersistentColl.finish() with an invocation pending")
        if self._finished:
            return
        self._finished = True
        if self.style == "fence":
            yield from self.window.fence(assert_=MODE_NOSUCCEED)
        elif self.style == "notify":
            yield from self.window.unlock_all()


class PersistentAllgather(PersistentColl):
    """Allgather(v) as the uniform-row special case: ``start`` takes
    this rank's one contribution; ``wait`` returns the rank-ordered
    concatenation."""

    def start(self, send: np.ndarray) -> None:  # type: ignore[override]
        arr = np.ascontiguousarray(send, dtype=self.schedule.dtype).reshape(-1)
        super().start([arr] * self.schedule.nranks)

    def wait(self) -> Generator[Any, Any, np.ndarray]:  # type: ignore[override]
        blocks = yield from super().wait()
        return np.concatenate(blocks) if blocks else np.zeros(0, self.schedule.dtype)


class PersistentAllreduce(PersistentAllgather):
    """Allreduce = persistent allgather of contributions + a local
    elementwise reduction in fixed rank order — one-sided data movement
    with a deterministic (schedule- and engine-independent) answer."""

    def __init__(self, *args, op: str = "sum", **kwargs):
        super().__init__(*args, **kwargs)
        if op not in _REDUCERS:
            raise ValueError(f"unknown reduction {op!r} (have {sorted(_REDUCERS)})")
        self.op = op

    def wait(self) -> Generator[Any, Any, np.ndarray]:  # type: ignore[override]
        gathered = yield from super().wait()
        s = self.schedule
        count = s.recv_counts[0]
        stacked = gathered.reshape(s.nranks, count)
        return _REDUCERS[self.op](stacked, axis=0)


# ---------------------------------------------------------------------------
# Plan builders (collective: every rank calls with identical arguments)
# ---------------------------------------------------------------------------

def _plan(proc, counts, dtype, nonblocking, cls, name: str, **extra):
    sched = build_schedule(proc.size, proc.rank, counts, dtype)
    win = yield from proc.win_allocate(
        sched.window_bytes, info={A_A_E_R: 1}, name=name,
    )
    engine = win.engine
    style = _style_of(engine)
    if nonblocking is None:
        nonblocking = engine.supports_nonblocking
    if nonblocking and not engine.supports_nonblocking:
        raise UnsupportedOperation(
            f"nonblocking drive on blocking-only engine "
            f"{win.group.runtime.engine_name!r}"
        )
    plan = cls(proc, win, sched, style, nonblocking, **extra)
    if style == "fence":
        yield from win.fence()          # open the persistent epoch chain
    elif style == "notify":
        yield from win.lock_all()       # the persistent passive epoch
    yield from proc.barrier()
    return plan


def plan_alltoallv(
    proc, counts, dtype=np.int64, nonblocking: bool | None = None,
) -> Generator[Any, Any, PersistentColl]:
    """Compile a persistent alltoallv: ``counts[i][j]`` elements flow
    from rank ``i`` to rank ``j`` on every invocation.  Collective;
    every rank passes the identical counts matrix."""
    plan = yield from _plan(proc, counts, dtype, nonblocking,
                            PersistentColl, "coll.alltoallv")
    return plan


def plan_allgather(
    proc, count: int | Sequence[int], dtype=np.int64,
    nonblocking: bool | None = None,
) -> Generator[Any, Any, PersistentAllgather]:
    """Compile a persistent allgather(v): rank ``i`` contributes
    ``count`` (or ``count[i]``) elements to every rank."""
    n = proc.size
    if isinstance(count, (int, np.integer)):
        counts = uniform_counts(n, int(count))
    else:
        per_rank = [int(c) for c in count]
        if len(per_rank) != n:
            raise ValueError(f"need {n} per-rank counts, got {len(per_rank)}")
        counts = tuple(tuple(c for _ in range(n)) for c in per_rank)
    plan = yield from _plan(proc, counts, dtype, nonblocking,
                            PersistentAllgather, "coll.allgather")
    return plan


def plan_allreduce(
    proc, count: int, dtype=np.int64, op: str = "sum",
    nonblocking: bool | None = None,
) -> Generator[Any, Any, PersistentAllreduce]:
    """Compile a persistent allreduce over ``count``-element vectors."""
    plan = yield from _plan(proc, uniform_counts(proc.size, int(count)), dtype,
                            nonblocking, PersistentAllreduce,
                            "coll.allreduce", op=op)
    return plan
