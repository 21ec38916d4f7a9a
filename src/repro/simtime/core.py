"""The discrete-event simulator: a virtual clock plus a callback heap.

Design notes
------------
The kernel is deliberately tiny: a binary heap of ``(time, seq, callback)``
entries.  ``seq`` is a monotonically increasing tie-breaker, which makes
every run **fully deterministic**: two events scheduled for the same
virtual instant execute in scheduling order.  All higher layers (network,
MPI runtime, RMA engines) are written against this guarantee and the test
suite property-checks it.

Schedule exploration (:mod:`repro.explore`) hooks in here: a *policy*
passed at construction may perturb each scheduled callback with a
bounded extra delay and a tie-break priority key, turning the single
deterministic schedule into a seeded family of legal schedules.  Heap
entries are ``(time, key, seq, callback, args)``; without a policy the
key is always 0 and ordering is exactly the historical FIFO.  Callbacks
whose relative order is a *contract* rather than a happenstance of the
schedule (per-pair fabric deliveries, for example) are scheduled with a
``lane``; policies perturb whole lanes coherently so intra-lane order
survives exploration.

Time is a ``float`` in *microseconds* by convention throughout the
library; the kernel itself is unit-agnostic.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Hashable, Protocol

from .errors import SimulationDeadlock
from .events import AllOf, AnyOf, SimEvent, Timeout
from .process import SimProcess

__all__ = ["Simulator", "TieBreakPolicy"]


class TieBreakPolicy(Protocol):
    """Pluggable schedule-perturbation policy (see :mod:`repro.explore`).

    ``perturb`` is consulted once per :meth:`Simulator.schedule` call and
    returns ``(extra_delay, key)``: a bounded non-negative delay added to
    the callback's firing time and an integer priority key that orders
    same-timestamp callbacks (lower first; ties fall back to scheduling
    order).  ``lane`` identifies a FIFO stream whose internal order the
    policy must preserve, or ``None`` for a freely reorderable callback.
    """

    def perturb(
        self, time: float, seq: int, lane: Hashable | None
    ) -> tuple[float, int]:  # pragma: no cover - protocol
        ...


class Simulator:
    """Owns the virtual clock and the pending-callback heap."""

    def __init__(self, policy: TieBreakPolicy | None = None) -> None:
        self._now: float = 0.0
        self._seq: int = 0
        #: Heap of 5-slot entries ``[time, key, seq, fn, args]``.  Entries
        #: are mutable lists recycled through :attr:`_free` — a slab that
        #: caps per-event allocation.  Comparisons never reach ``fn``/
        #: ``args`` because ``seq`` is unique, so list-vs-tuple identity
        #: of the entry container cannot affect ordering.
        self._heap: list[list[Any]] = []
        #: Free slab of retired heap entries (bounded; see :meth:`run`).
        self._free: list[list[Any]] = []
        #: Same-timestamp delivery batch (policy-free runs only).  While
        #: :meth:`run` executes a batch of co-temporal entries, this
        #: aliases the batch list and :meth:`schedule` appends zero-delay
        #: callbacks directly to it, skipping the heap round-trip.
        self._batch: list[list[Any]] | None = None
        self._processes: list[SimProcess] = []
        #: Processes whose generator raised (drained by :meth:`run`).
        self._failed: list[SimProcess] = []
        #: Optional schedule-exploration policy (None = historical FIFO).
        self.policy = policy
        #: Optional causal recorder (:mod:`repro.obs.causal`).  When
        #: set, the context current at :meth:`schedule` time is saved
        #: per ``seq`` and restored before the callback fires, so
        #: causality flows across the schedule/fire boundary.  One
        #: attribute check per event when disabled.
        self.causal = None

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    # -- scheduling ------------------------------------------------------
    def schedule(
        self, delay: float, fn: Callable[..., None], *args: Any, lane: Hashable | None = None
    ) -> None:
        """Run ``fn(*args)`` after ``delay`` virtual time units.

        ``lane`` (keyword-only) marks the callback as part of a FIFO
        stream — callbacks sharing a lane keep their relative order under
        any exploration policy.  It has no effect without a policy.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        causal = self.causal
        if causal is not None and causal.current is not None:
            causal._ctx[self._seq] = causal.current
        when = self._now + delay
        if self.policy is not None:
            extra, key = self.policy.perturb(when, self._seq, lane)
            when += extra
        else:
            key = 0
        free = self._free
        if free:
            entry = free.pop()
            entry[0] = when
            entry[1] = key
            entry[2] = self._seq
            entry[3] = fn
            entry[4] = args
        else:
            entry = [when, key, self._seq, fn, args]
        # Zero-delay callbacks scheduled while a co-temporal batch is
        # executing join the batch tail directly: without a policy every
        # entry has key 0 and seq is monotone, so heap ordering would
        # have popped them right after the current batch anyway.
        batch = self._batch
        if batch is not None and when == self._now:
            batch.append(entry)
        else:
            heapq.heappush(self._heap, entry)

    # -- event factories ---------------------------------------------------
    def event(self, name: str = "") -> SimEvent:
        """Create a fresh untriggered :class:`SimEvent`."""
        return SimEvent(self, name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Timeout:
        """Create an event that triggers after ``delay``."""
        return Timeout(self, delay, value, name)

    def all_of(self, events: list[SimEvent], name: str = "") -> AllOf:
        """Create an event that triggers when all of ``events`` have."""
        return AllOf(self, events, name)

    def any_of(self, events: list[SimEvent], name: str = "") -> AnyOf:
        """Create an event that triggers when any of ``events`` has."""
        return AnyOf(self, events, name)

    # -- processes ---------------------------------------------------------
    def process(self, gen: Generator[SimEvent, Any, Any], name: str = "") -> SimProcess:
        """Register a generator as a cooperative process and start it at
        the current virtual time."""
        proc = SimProcess(self, gen, name or f"proc{len(self._processes)}")
        self._processes.append(proc)
        self.schedule(0.0, proc._step, None)
        return proc

    # -- main loop ---------------------------------------------------------
    def run(self, until: float | None = None) -> float:
        """Execute callbacks until the heap drains or ``until`` is reached.

        Returns the final virtual time.  Raises
        :class:`~repro.simtime.errors.SimulationDeadlock` if the heap
        drains while registered processes are still alive and blocked, and
        re-raises (wrapped) any exception escaping a process generator.
        """
        heap = self._heap
        failed = self._failed
        free = self._free
        pop = heapq.heappop
        causal = self.causal
        ctx = causal._ctx if causal is not None else None
        batching = self.policy is None
        batch: list[list[Any]] = []
        while heap:
            entry = heap[0]
            t = entry[0]
            if until is not None and t > until:
                self._now = until
                return self._now
            pop(heap)
            self._now = t
            if batching:
                # Drain every co-temporal entry up front: a burst of
                # same-instant callbacks (event triggers, loopback
                # deliveries) pays one heap pop each instead of a full
                # push/pop round-trip, and zero-delay schedules made
                # while the batch runs append straight to its tail (see
                # :meth:`schedule`).  Only legal without a policy: a
                # perturbing policy may order a newly scheduled
                # same-time entry *before* pending ones via its key.
                batch.append(entry)
                while heap and heap[0][0] == t:
                    batch.append(pop(heap))
                self._batch = batch
                i = 0
                try:
                    while i < len(batch):
                        entry = batch[i]
                        i += 1
                        fn = entry[3]
                        args = entry[4]
                        if causal is not None:
                            # Restore the causal context captured when
                            # this callback was scheduled (before the
                            # entry is recycled and its seq reused).
                            causal.current = ctx.pop(entry[2], None)
                        # Recycle the entry; drop callback refs so the
                        # slab never pins closures or packet payloads
                        # past their firing.
                        entry[3] = entry[4] = None
                        if len(free) < 8192:
                            free.append(entry)
                        fn(*args)
                        if failed:
                            failed.pop(0).reraise_if_failed()
                finally:
                    self._batch = None
                    if i < len(batch):
                        # An exception interrupted the batch: push the
                        # unexecuted co-temporal entries back so the
                        # pending set stays consistent.
                        for entry in batch[i:]:
                            heapq.heappush(heap, entry)
                    batch.clear()
                continue
            fn = entry[3]
            args = entry[4]
            if causal is not None:
                causal.current = ctx.pop(entry[2], None)
            # Recycle the entry; drop callback refs so the slab never
            # pins closures or packet payloads past their firing.
            entry[3] = entry[4] = None
            if len(free) < 8192:
                free.append(entry)
            fn(*args)
            if failed:
                failed.pop(0).reraise_if_failed()
        blocked = [p.name for p in self._processes if p.alive]
        if blocked and until is None:
            raise SimulationDeadlock(blocked)
        return self._now

    def run_until_idle(self) -> float:
        """Like :meth:`run` but tolerates still-blocked processes.

        Useful for driving a scenario in stages from a test.
        """
        try:
            return self.run()
        except SimulationDeadlock:
            return self._now

    @property
    def pending_callbacks(self) -> int:
        """Number of not-yet-executed scheduled callbacks."""
        return len(self._heap)

    @property
    def events_scheduled(self) -> int:
        """Total callbacks ever scheduled (the host-throughput
        denominator of ``repro.bench --scaling`` and ``python3 -m perf``)."""
        return self._seq

    @property
    def live_processes(self) -> list[SimProcess]:
        """Registered processes whose generators have not finished."""
        return [p for p in self._processes if p.alive]
