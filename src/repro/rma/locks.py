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
from types import MappingProxyType
from typing import Any, Callable

__all__ = ["LockWaiter", "LockManager"]

#: The holder map while nobody holds the lock (shared, read-only).
_NO_HOLDERS = MappingProxyType({})


@dataclass(frozen=True, slots=True)
class LockWaiter:
    """One queued lock request."""

    origin: int
    exclusive: bool
    access_id: int


class LockManager:
    """FIFO lock state for one hosted window."""

    __slots__ = ("_on_grant", "_host", "_holders", "locked_exclusive", "_queue", "grants",
                 "max_depth")

    def __init__(self, on_grant: Callable[[Any, LockWaiter], None], host: Any = None):
        #: Called as ``on_grant(host, waiter)`` for every grant (the
        #: engine sends the grant notification and updates its ω counters
        #: there; ``host`` is its state for the window).
        self._on_grant = on_grant
        self._host = host
        #: Current holders: origin -> exclusive?  A dict while anyone
        #: holds the lock, the shared empty otherwise.
        self._holders: "dict[int, bool] | MappingProxyType" = _NO_HOLDERS
        #: Whether an exclusive holder exists (then it is the only one).
        self.locked_exclusive = False
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
    def holder_count(self) -> int:
        """Number of current holders (O(1) — ``holders`` copies)."""
        return len(self._holders)

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
        holders = self._holders
        if origin not in holders:
            raise RuntimeError(f"origin {origin} released a lock it does not hold")
        if holders.pop(origin):
            self.locked_exclusive = False
        if not holders:
            self._holders = _NO_HOLDERS
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
        if self._holders:
            self._holders[waiter.origin] = waiter.exclusive
        else:
            self._holders = {waiter.origin: waiter.exclusive}
        if waiter.exclusive:
            self.locked_exclusive = True
        self.grants += 1
        self._on_grant(self._host, waiter)
