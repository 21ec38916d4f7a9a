"""Target-side passive-target lock manager.

Each rank runs one :class:`LockManager` per window for the locks *it
hosts*.  Grant policy is strict FIFO with shared-batch coalescing:

- the queue is processed from the head;
- an exclusive request is granted only when no holder remains;
- consecutive shared requests at the head are granted together;
- a shared request behind a waiting exclusive request waits (no
  starvation of writers).

This is the policy that produces the paper's Late Unlock behaviour: a
subsequent requester (exclusive or not) waits for the current exclusive
holder's unlock, however late that unlock is.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

__all__ = ["LockWaiter", "LockManager"]


@dataclass(frozen=True, slots=True)
class LockWaiter:
    """One queued lock request."""

    origin: int
    exclusive: bool
    access_id: int


class LockManager:
    """FIFO lock state for one hosted window."""

    __slots__ = ("_on_grant", "_holders", "_queue", "grants", "max_depth")

    def __init__(self, on_grant: Callable[[LockWaiter], None]):
        #: Callback invoked for every grant (engine sends the grant
        #: notification and updates its ω counters there).
        self._on_grant = on_grant
        #: Current holders: origin -> exclusive?
        self._holders: dict[int, bool] = {}
        #: Waiting requests: a deque while any waits, ``()`` otherwise.
        self._queue: "deque[LockWaiter] | tuple[()]" = ()
        #: Total grants issued (diagnostics).
        self.grants = 0
        #: Deepest the wait queue has been (read at summary time).
        self.max_depth = 0

    # -- queries -----------------------------------------------------------
    @property
    def holders(self) -> dict[int, bool]:
        """Copy of the holder map (origin -> exclusive flag)."""
        return dict(self._holders)

    @property
    def queued(self) -> list[LockWaiter]:
        """Waiting requests in FIFO order."""
        return list(self._queue)

    @property
    def queue_depth(self) -> int:
        """Number of waiting requests (O(1) — ``queued`` copies)."""
        return len(self._queue)

    @property
    def locked_exclusive(self) -> bool:
        """Whether an exclusive holder exists."""
        return any(self._holders.values())

    def holds(self, origin: int) -> bool:
        """Whether ``origin`` currently holds the lock."""
        return origin in self._holders

    # -- operations -----------------------------------------------------------
    def request(self, origin: int, exclusive: bool, access_id: int) -> None:
        """Enqueue a request and process the queue.

        A request from an origin that currently holds the lock is legal
        — nonblocking epochs let an origin have several lock epochs to
        the same target in flight (§VII-B) — but it only gets granted
        after the earlier hold is released, which also prevents the
        recursive shared-locking hazard §VII-A mentions.
        """
        if not self._queue:
            self._queue = deque()
        self._queue.append(LockWaiter(origin, exclusive, access_id))
        depth = len(self._queue)
        if depth > self.max_depth:
            self.max_depth = depth
        self._drain()

    def release(self, origin: int) -> None:
        """Release ``origin``'s hold and process the queue."""
        if origin not in self._holders:
            raise RuntimeError(f"origin {origin} released a lock it does not hold")
        del self._holders[origin]
        self._drain()

    # -- internals -----------------------------------------------------------
    def _drain(self) -> None:
        while self._queue:
            head = self._queue[0]
            if head.origin in self._holders:
                # Same-origin back-to-back epoch: wait for its release.
                return
            if head.exclusive:
                if self._holders:
                    return
                self._queue.popleft()
                self._grant(head)
                break  # exclusive holder blocks everything behind it
            # Shared head: grantable unless an exclusive holder exists.
            if self.locked_exclusive:
                return
            self._queue.popleft()
            self._grant(head)
            # Loop continues: grant every consecutive shared request.
        if not self._queue:
            self._queue = ()

    def _grant(self, waiter: LockWaiter) -> None:
        self._holders[waiter.origin] = waiter.exclusive
        self.grants += 1
        self._on_grant(waiter)
