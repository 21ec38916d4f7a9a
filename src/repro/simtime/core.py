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

A callback that usually turns out to be a no-op (a credit coming home
to a pool nobody waits on) need not take a heap entry:
:meth:`Simulator.reserve` hands out its *position* ``(time, key, seq)``,
:meth:`Simulator.passed` says whether the clock is beyond it and
:meth:`Simulator.claim` gives it a callback if one is needed after all.
``schedule`` is ``reserve`` + ``claim``, so ``seq`` numbering, and with
it every tie-break, is the same either way; and the clock still passes
over a reserved position: a drained run ends at the latest one.

Time is a ``float`` in *microseconds* by convention throughout the
library; the kernel itself is unit-agnostic.
"""

from __future__ import annotations

import gc
from bisect import insort
from collections import deque
from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, Generator, Hashable, Protocol

from .errors import SimulationDeadlock
from .events import AnyOf, SimEvent, Timeout
from .process import SimProcess

__all__ = ["Position", "Simulator", "TieBreakPolicy"]

#: A place in the event order: ``(time, key, seq)``.
Position = tuple[float, int, int]


class TieBreakPolicy(Protocol):
    """Pluggable schedule-perturbation policy (see :mod:`repro.explore`).

    ``perturb`` is consulted once per position handed out
    (:meth:`Simulator.schedule` or :meth:`Simulator.reserve`) and
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
        #: Heap of immutable ``(time, key, seq, fn, args)`` entries.
        #: Comparisons never reach ``fn``/``args`` because ``seq`` is
        #: unique.
        self._heap: list[tuple] = []
        #: Same-timestamp delivery batch (policy-free runs only).  While
        #: :meth:`run` executes a batch of co-temporal entries, this
        #: aliases the batch and :meth:`schedule` appends zero-delay
        #: callbacks directly to it, skipping the heap round-trip.
        self._batch: deque[tuple] | None = None
        #: The furthest entry executed at the current instant; :meth:`passed`
        #: breaks ties on its ``(key, seq)``.  ``(now, inf, 0)`` between runs.
        self._cur: tuple = (0.0, inf, 0)
        #: Latest time a position was reserved for (see :meth:`run`).
        self._horizon: float = 0.0
        self._processes: list[SimProcess] = []
        #: Processes whose generator raised (drained by :meth:`run`).
        self._failed: list[SimProcess] = []
        #: Optional schedule-exploration policy (None = historical FIFO).
        self.policy = policy
        #: Optional causal recorder (:mod:`repro.obs.causal`).  When
        #: set, the context current when a position is handed out is
        #: saved per ``seq`` and restored before its callback fires, so
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
        # reserve() + claim(), inlined: this is the hottest call there is.
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._seq = seq = self._seq + 1
        causal = self.causal
        if causal is not None and causal.current is not None:
            causal._ctx[seq] = causal.current
        when = self._now + delay
        if self.policy is not None:
            extra, key = self.policy.perturb(when, seq, lane)
            when += extra
        else:
            key = 0
        # Zero-delay callbacks scheduled while a co-temporal batch is
        # executing join the batch tail directly: without a policy every
        # entry has key 0 and seq is monotone, so heap ordering would
        # have popped them right after the current batch anyway.
        batch = self._batch
        if batch is not None and when == self._now:
            batch.append((when, key, seq, fn, args))
        else:
            heappush(self._heap, (when, key, seq, fn, args))

    def reserve(self, delay: float, lane: Hashable | None = None) -> Position:
        """Take the place ``schedule(delay, ...)`` would take in the event
        order — next ``seq``, policy perturbation, causal context — without
        a heap entry.  ``delay`` must be positive: reserved ahead of the
        clock, a position can be judged :meth:`passed` from the furthest
        entry executed at its instant alone.
        """
        if delay <= 0:
            raise ValueError(f"a position is reserved ahead of the clock (delay={delay})")
        self._seq = seq = self._seq + 1
        causal = self.causal
        if causal is not None and causal.current is not None:
            causal._ctx[seq] = causal.current
        when = self._now + delay
        if self.policy is not None:
            extra, key = self.policy.perturb(when, seq, lane)
            when += extra
        else:
            key = 0
        if when > self._horizon:
            self._horizon = when
        return when, key, seq

    def passed(self, pos: Position) -> bool:
        """Whether a callback at reserved position ``pos`` would have
        run by now (then it is too late to :meth:`claim` it)."""
        when = pos[0]
        if when != self._now:
            return when < self._now
        return pos[1:] < self._cur[1:3]

    def claim(self, pos: Position, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` at reserved position ``pos``, which the
        clock must not have :meth:`passed`."""
        when = pos[0]
        if when < self._now:
            raise ValueError(f"position {pos} is behind the clock ({self._now})")
        batch = self._batch
        if batch is not None and when == self._now:
            # Due later in the executing batch: sorted place, not tail.
            insort(batch, (*pos, fn, args))
        else:
            heappush(self._heap, (*pos, fn, args))

    # -- event factories ---------------------------------------------------
    def event(self, name: str = "") -> SimEvent:
        """Create a fresh pending :class:`SimEvent`."""
        return SimEvent(self, name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Timeout:
        """Create an event that completes after ``delay``."""
        return Timeout(self, delay, value, name)

    def any_of(self, events: list[SimEvent], name: str = "") -> AnyOf:
        """Create an event that completes when any of ``events`` has."""
        return AnyOf(self, events, name)

    # -- processes ---------------------------------------------------------
    def process(
        self, gen: Generator[SimEvent, Any, Any], name: str | tuple = ""
    ) -> SimProcess:
        """Register a generator as a cooperative process and start it at
        the current virtual time."""
        proc = SimProcess(self, gen, name or ("proc%d", len(self._processes)))
        self._processes.append(proc)
        self.schedule(0.0, proc._step, None)
        return proc

    # -- main loop ---------------------------------------------------------
    def run(self, until: float | None = None) -> float:
        """Execute callbacks until the heap drains or ``until`` is reached.

        Returns the final virtual time: ``until`` if callbacks remain
        beyond it, else the time of the last position handed out and
        not beyond ``until`` — executed or merely reserved.  Raises
        :class:`~repro.simtime.errors.SimulationDeadlock` if the heap
        drains while registered processes are still alive and blocked, and
        re-raises (wrapped) any exception escaping a process generator.

        Automatic cyclic garbage collection is paused for the duration
        and the caller's setting restored on exit: a run makes no
        reference cycles, and collector passes over its growing live
        state were the per-event cost that grew with the rank count.
        Cyclic garbage a callback makes itself is kept until ``run``
        returns; an explicit ``gc.collect()`` still collects.
        """
        if until is not None and until < self._now:
            raise ValueError(f"cannot run into the past (until={until}, now={self._now})")
        gc_was_enabled = gc.isenabled()
        gc.disable()  # before the first allocation below
        heap = self._heap
        failed = self._failed
        causal = self.causal
        ctx = causal._ctx if causal is not None else None
        batching = self.policy is None
        batch: deque[tuple] = deque()
        try:
            if batching:
                self._batch = batch  # for the whole run: nothing runs between instants
            while heap:
                entry = heap[0]
                t = entry[0]
                if until is not None and t > until:
                    end = until
                    break
                heappop(heap)
                if batching:
                    # Drain every co-temporal entry up front: a burst of
                    # same-instant callbacks (event completions, loopback
                    # deliveries) pays one heap pop each instead of a full
                    # push/pop round-trip, and zero-delay schedules made
                    # while the batch runs append straight to its tail (see
                    # :meth:`schedule`).  Only legal without a policy: a
                    # perturbing policy may order a newly scheduled
                    # same-time entry *before* pending ones via its key.
                    while heap and heap[0][0] == t:
                        batch.append(heappop(heap))
                    self._now = t
                    while True:
                        self._cur = entry
                        if causal is not None:
                            # Restore the causal context captured when
                            # this callback's position was handed out.
                            causal.current = ctx.pop(entry[2], None)
                        entry[3](*entry[4])
                        if failed:
                            failed.pop(0).reraise_if_failed()
                        if not batch:
                            break
                        entry = batch.popleft()
                    continue
                # Under a policy execution order within an instant is not
                # monotone in (key, seq) — a callback may schedule a
                # same-time entry with a lower key — so track the maximum.
                if t > self._now or entry[1:3] > self._cur[1:3]:
                    self._cur = entry
                self._now = t
                if causal is not None:
                    causal.current = ctx.pop(entry[2], None)
                entry[3](*entry[4])
                if failed:
                    failed.pop(0).reraise_if_failed()
            else:
                # Drained.  The clock still passes over every reserved
                # position, claimed or not: the run ends where it would
                # have ended had each been a callback.
                end = self._horizon if until is None else min(until, self._horizon)
            if end > self._now:
                self._now = end
            # Everything at ``now`` has run; and let go of the last callback.
            self._cur = (self._now, inf, 0)
            if until is None:  # so the heap drained
                blocked = [p.name for p in self._processes if p.alive]
                if blocked:
                    raise SimulationDeadlock(blocked)
            return self._now
        finally:
            self._batch = None
            # An exception interrupted a batch: its unexecuted entries go back.
            while batch:
                heappush(heap, batch.pop())
            if gc_was_enabled:
                gc.enable()

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
        """Number of not-yet-executed callbacks (a reserved position
        nobody claimed is not one)."""
        return len(self._heap)

    @property
    def events_scheduled(self) -> int:
        """Positions handed out so far, scheduled or reserved (the
        host-throughput denominator of ``repro.bench --scaling`` and
        ``python3 -m perf``: it does not depend on who only reserves)."""
        return self._seq

    @property
    def live_processes(self) -> list[SimProcess]:
        """Registered processes whose generators have not finished."""
        return [p for p in self._processes if p.alive]
