"""Detection of the MPI one-sided inefficiency patterns (§III).

Given the causal span graph of a run (:class:`~repro.obs.causal.CausalRecorder`,
``MPIRuntime(causal=True)``), :func:`detect_patterns` classifies every
blocking interval spent inside an RMA synchronization call into the
pattern taxonomy:

- **Late Post** — a closing (or opening) GATS call blocked because the
  matching exposure was not yet posted: the part of a ``complete`` block
  interval that elapses before the last missing access grant arrives.
- **Early Transfer** — an RMA communication call blocking because the
  target epoch is not exposed.  Structurally impossible in this runtime
  (communication calls are nonblocking, as mandated by MPI-3.0); the
  detector reports it as always absent.
- **Early Wait** — ``MPI_WIN_WAIT`` invoked while the epoch's transfers
  are still arriving: the part of a ``wait`` block interval up to the
  last data arrival at this rank.
- **Late Complete** — the tail of a ``wait`` block interval *after* the
  last data arrival: the origin had finished transferring but had not
  yet invoked its (blocking or nonblocking) completion call.
- **Early Fence** — the part of a closing-``fence`` block interval spent
  while transfers (outgoing or incoming) were still in flight.
- **Wait at Fence** — the tail of a closing-``fence`` block interval
  after all transfers involving this rank were finished: pure waiting on
  late peers' fence calls.
- **Late Unlock** — the part of a blocked lock acquisition spent after
  the previous holder's transfers had completed: the holder sat on the
  lock without needing it.

It reads three kinds of record: ``block`` spans (the rank inside a
blocking call, ``meta["call"]`` naming it), ``grant`` instants (a GATS
or lock grant applied at the receiving rank, on either wire encoding)
and data arrivals — the end of each ``op`` span (remote completion at
the origin) and the end of each ``PutData`` message span (the put
applied at its destination).

Durations are attributed to the *suffering* rank.  The detectors use
the documented heuristics above; they are exact for the single-window
microbenchmark shapes of §VIII and approximate when a rank multiplexes
many windows inside one blocking call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.causal import CausalRecorder

__all__ = ["PATTERNS", "PatternInstance", "detect_patterns"]

#: The seven-pattern taxonomy (six from [3] + the paper's Late Unlock).
PATTERNS = (
    "late_post",
    "early_transfer",
    "early_wait",
    "late_complete",
    "early_fence",
    "wait_at_fence",
    "late_unlock",
)

# Blocking-call kinds that can exhibit each pattern.
_GATS_CLOSE_CALLS = {"complete", "start"}
_WAIT_CALLS = {"wait"}
_FENCE_CALLS = {"fence"}
_LOCK_CALLS = {"unlock", "unlock_all", "lock", "flush", "flush_all"}


@dataclass(frozen=True)
class PatternInstance:
    """One detected occurrence of an inefficiency pattern."""

    pattern: str
    rank: int
    win: int
    epoch: int | None
    start: float
    end: float

    @property
    def duration(self) -> float:
        """Wasted wait time in µs."""
        return self.end - self.start


@dataclass(frozen=True)
class _Block:
    rank: int
    win: int
    epoch: int | None
    call: str
    start: float
    end: float


def _timeline(recorder: "CausalRecorder") -> tuple[list[_Block], list, list]:
    """The closed blocks, the grant arrivals ``(rank, win, t)`` and the
    data arrivals ``(rank, win, t, at_target)`` of one record."""
    spans = recorder.spans
    blocks: list[_Block] = []
    grants: list[tuple[int, int, float]] = []
    arrivals: list[tuple[int, int, float, bool]] = []
    for s in spans:
        if s.t1 is None:
            continue  # still blocked, or still in flight, when the run stopped
        kind = s.kind
        if kind == "block":
            epoch = s.epoch if s.epoch >= 0 else None
            blocks.append(_Block(s.rank, s.win, epoch, s.meta["call"], s.t0, s.t1))
        elif kind == "grant":
            grants.append((s.rank, s.win, s.t1))
        elif kind == "op":
            arrivals.append((s.rank, s.win, s.t1, False))
        elif kind == "msg" and s.meta["ptype"] == "PutData":
            # A put's message is a child of its op span, which names the window.
            arrivals.append((s.meta["dst"], spans[s.parent].win, s.t1, True))
    return blocks, grants, arrivals


def _last_time(times: Iterable[float], lo: float, hi: float) -> float | None:
    """Latest time within (lo, hi], or None."""
    best: float | None = None
    for t in times:
        if lo < t <= hi and (best is None or t > best):
            best = t
    return best


def detect_patterns(
    recorder: "CausalRecorder", min_duration: float = 1e-9
) -> list[PatternInstance]:
    """Classify blocking time into pattern instances.

    ``min_duration`` suppresses numerically trivial slivers.
    """
    blocks, grants, arrivals = _timeline(recorder)
    found: list[PatternInstance] = []

    def add(pattern: str, block: _Block, start: float, end: float) -> None:
        if end - start > min_duration:
            found.append(
                PatternInstance(pattern, block.rank, block.win, block.epoch, start, end)
            )

    for block in blocks:
        rank, win = block.rank, block.win
        if block.call in _GATS_CLOSE_CALLS:
            # Late Post: waiting for grants that arrive mid-block.
            last_grant = _last_time(
                (t for r, w, t in grants if r == rank and w == win),
                block.start,
                block.end,
            )
            if last_grant is not None:
                add("late_post", block, block.start, last_grant)

        elif block.call in _WAIT_CALLS:
            incoming = (
                t for r, w, t, at_target in arrivals if r == rank and w == win and at_target
            )
            last_data = _last_time(incoming, float("-inf"), block.end)
            if last_data is None or last_data <= block.start:
                # All data already here: the whole block is Late Complete.
                add("late_complete", block, block.start, block.end)
            else:
                add("early_wait", block, block.start, min(last_data, block.end))
                add("late_complete", block, min(last_data, block.end), block.end)

        elif block.call in _FENCE_CALLS:
            involving_me = (t for r, w, t, _ in arrivals if r == rank and w == win)
            last_data = _last_time(involving_me, float("-inf"), block.end)
            if last_data is None or last_data <= block.start:
                add("wait_at_fence", block, block.start, block.end)
            else:
                add("early_fence", block, block.start, min(last_data, block.end))
                add("wait_at_fence", block, min(last_data, block.end), block.end)

        elif block.call in _LOCK_CALLS:
            # Late Unlock: time spent waiting for the grant, counted from
            # the moment the previous holder's transfers were over.
            my_grants = (t for r, w, t in grants if r == rank and w == win)
            grant_time = _last_time(my_grants, block.start, block.end)
            if grant_time is None:
                continue
            # Previous holder's last transfer into the lock's target rank
            # before our grant.
            holder_data = (
                t
                for r, w, t, at_target in arrivals
                if w == win and at_target and r != rank and t <= grant_time
            )
            holder_done = _last_time(holder_data, float("-inf"), grant_time)
            start = max(block.start, holder_done) if holder_done is not None else block.start
            add("late_unlock", block, start, grant_time)

    found.sort(key=lambda p: (p.start, p.rank))
    return found
