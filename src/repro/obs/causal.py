"""Causal span/edge recorder for the DES (``repro.obs.causal``).

The recorder turns a simulated run into a *span graph*: every epoch,
RMA op, control message (ω grant/done, signal update, lock handoff,
fence round), fabric hop, flow-control stall and reliability
retransmit becomes a :class:`Span` with explicit causal parent edges.
:mod:`repro.obs.critpath` consumes the graph to attribute each epoch's
virtual lifetime to blocked-time categories and to extract the
critical path bounding completion.

It is the run's one timeline.  Two kinds exist for the §III pattern
detector (:mod:`repro.patterns.detect`) and the Chrome rank tracks
(:mod:`repro.obs.chrometrace`): a ``block`` span covers a rank inside a
blocking synchronization call (``meta["call"]``), and a ``grant``
instant marks a GATS or lock grant the receiving rank's counter board
applied.  Both are leaves: neither ever becomes :attr:`CausalRecorder.current`,
so no other span's ``parent`` or ``end_cause`` points at one, and the
attribution and the critical path never see them.

Causality is threaded through the DES kernel itself: the recorder
keeps a *current context* — the span id causally responsible for the
code executing right now — and :class:`~repro.simtime.core.Simulator`
propagates it across ``schedule()``/fire boundaries (the context at
schedule time is restored before the callback runs).  Instrumentation
sites only ever read ``recorder.current``; they never have to thread
parent ids by hand.

Like the semantics checker and the step profiler, the recorder is
opt-in (``causal=True``, or ``metrics=True``, whose summary is folded
from it) and one attribute check when disabled: ``sim.causal`` /
``runtime.causal`` are ``None`` by default and every hot-path hook is
a single ``is None`` test.

Times are virtual microseconds; the attribution pass converts them to
an integer-nanosecond grid so the conservation invariant (categories
sum *exactly* to each epoch's active time) is exact integer
arithmetic, not a float tolerance.
"""

from __future__ import annotations

from typing import Any

__all__ = ["Span", "CausalRecorder", "CATEGORIES", "span_category", "ns"]

#: Blocked-time attribution taxonomy (exhaustive, non-overlapping).
#: Order is the priority used by the attribution sweep: when candidate
#: intervals overlap, the earliest category in this tuple wins and the
#: remainder of each instant falls through; time covered by nothing is
#: ``drain`` (closing waits: dones, unlock acks, exposure lifetime).
CATEGORIES = (
    "retransmit",
    "flow_control",
    "fabric",
    "issue",
    "lock_wait",
    "grant_wait",
    "drain",
)

#: Payload class names that are protocol control traffic (everything
#: else on the wire is data movement).  Used to classify message spans
#: for the critical-path per-category share.
CONTROL_PAYLOADS = frozenset(
    {
        "GrantUpdate",
        "SignalUpdate",
        "DonePacket",
        "LockRequestPacket",
        "UnlockPacket",
        "UnlockAck",
        "FenceOpen",
        "FenceDone",
        "AccRendezvousRts",
        "AccRendezvousCts",
    }
)


def ns(t_us: float) -> int:
    """Microsecond float → integer nanoseconds (the attribution grid)."""
    return round(t_us * 1000.0)


class Span:
    """One node in the causal graph.

    ``parent`` is the context at *begin* (what caused the span to
    start); ``end_cause`` is the context at *end* (what caused it to
    finish).  Either may be ``None``.  ``t1 is None`` marks a span
    still open when the run stopped.
    """

    __slots__ = ("sid", "kind", "rank", "win", "epoch", "t0", "t1",
                 "parent", "end_cause", "meta")

    def __init__(self, sid: int, kind: str, rank: int, win: int,
                 epoch: int, t0: float, parent: int | None,
                 meta: dict[str, Any] | None) -> None:
        self.sid = sid
        self.kind = kind
        self.rank = rank
        self.win = win
        self.epoch = epoch
        self.t0 = t0
        self.t1: float | None = None
        self.parent = parent
        self.end_cause: int | None = None
        self.meta = meta

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "open" if self.t1 is None else f"t1={self.t1}"
        return (f"<Span #{self.sid} {self.kind} rank={self.rank} "
                f"t0={self.t0} {state} parent={self.parent}>")


def span_category(span: Span) -> str:
    """Critical-path category of a span (coarser than the blocked-time
    taxonomy: message spans split into control vs. data by payload)."""
    kind = span.kind
    if kind == "msg":
        ptype = span.meta.get("ptype", "") if span.meta else ""
        return "control" if ptype in CONTROL_PAYLOADS else "data"
    if kind == "op":
        return "issue"
    if kind == "fc_stall":
        return "flow_control"
    if kind == "retransmit":
        return "retransmit"
    if kind == "epoch":
        return "epoch"
    return "other"


class EpochRecord:
    """Attribution inputs for one completed epoch, captured at
    ``_complete_epoch`` time (engine-agnostic: only epoch/op timeline
    fields recorded by the shared base-engine mechanics are read)."""

    __slots__ = ("uid", "kind", "rank", "win", "sid",
                 "open_us", "activate_us", "close_us", "complete_us", "ops")

    def __init__(self, uid: int, kind: str, rank: int, win: int, sid: int,
                 open_us: float, activate_us: float | None,
                 close_us: float | None, complete_us: float,
                 ops: list[tuple[int, float | None, float | None, float | None]]):
        self.uid = uid
        self.kind = kind
        self.rank = rank
        self.win = win
        self.sid = sid
        self.open_us = open_us
        self.activate_us = activate_us
        self.close_us = close_us
        self.complete_us = complete_us
        #: ``(target, issue_us, local_us, deliver_us)`` per issued op.
        self.ops = ops


class CausalRecorder:
    """Records spans + causal edges; owned by the runtime, threaded
    into the kernel as ``sim.causal`` and into the network/engine
    layers as a captured attribute (``None`` when disabled)."""

    def __init__(self, sim: Any) -> None:
        self._sim = sim
        #: All spans, indexed by sid (``spans[s.sid] is s``).
        self.spans: list[Span] = []
        #: Context: sid of the innermost causally-responsible span.
        self.current: int | None = None
        #: ``seq -> context`` for scheduled-but-unfired callbacks
        #: (written by ``Simulator.schedule``, popped at fire time).
        self._ctx: dict[int, int | None] = {}
        #: Explicitly measured wait intervals per epoch uid:
        #: ``uid -> [(category, t0_us, t1_us), ...]``.
        self.waits: dict[int, list[tuple[str, float, float]]] = {}
        #: Completed-epoch attribution records, in completion order.
        self.epochs: list[EpochRecord] = []
        #: Epoch uid -> open epoch span sid (moved to records on complete).
        self._epoch_sids: dict[int, int] = {}
        #: Epoch uid -> ``(op uid, (target, issue, local, deliver))`` of
        #: its delivered ops (moved to records on complete).
        self._op_times: dict[int, list[tuple[int, tuple]]] = {}

    # -- span primitives -------------------------------------------------
    def begin(self, kind: str, rank: int = -1, win: int = -1,
              epoch: int = -1, meta: dict[str, Any] | None = None) -> int:
        """Open a span at the current virtual time; parent = context."""
        sid = len(self.spans)
        self.spans.append(
            Span(sid, kind, rank, win, epoch, self._sim.now, self.current, meta)
        )
        return sid

    def end(self, sid: int) -> None:
        """Close a span; end_cause = context at this instant."""
        span = self.spans[sid]
        span.t1 = self._sim.now
        span.end_cause = self.current

    def instant(self, kind: str, rank: int = -1, win: int = -1,
                epoch: int = -1, meta: dict[str, Any] | None = None) -> int:
        """Zero-duration span (control events, protocol marks)."""
        sid = self.begin(kind, rank, win, epoch, meta)
        self.end(sid)
        return sid

    def deliver(self, sid: int) -> None:
        """Close a message span *and* make it the context: the delivery
        handler (and everything it schedules) is caused by the message."""
        span = self.spans[sid]
        span.t1 = self._sim.now
        span.end_cause = self.current
        self.current = sid

    # -- engine-facing helpers -------------------------------------------
    def wait(self, epoch_uid: int, category: str, t0: float, t1: float) -> None:
        """Record an explicitly measured wait interval for an epoch
        (e.g. lock-grant wait from request to handoff)."""
        self.waits.setdefault(epoch_uid, []).append((category, t0, t1))

    def epoch_open(self, rank: int, win: int, ep: Any) -> None:
        """Open the epoch's span (called from ``_open_epoch``)."""
        self._epoch_sids[ep.uid] = self.begin(
            "epoch", rank=rank, win=win, epoch=ep.uid,
            meta={"kind": ep.kind.value},
        )

    def op_delivered(self, op: Any) -> None:
        """Close an op's span and keep its times for its epoch's record (a
        delivered op is locally complete at the latest now)."""
        if op.causal_sid is not None:
            self.end(op.causal_sid)
        local = op.local_time if op.local_time is not None else op.deliver_time
        self._op_times.setdefault(op.epoch.uid, []).append(
            (op.uid, (op.target, op.issue_time, local, op.deliver_time)))

    def epoch_complete(self, rank: int, win: int, ep: Any) -> None:
        """Close the epoch span and snapshot attribution inputs
        (called from ``_complete_epoch``; uniform across engines)."""
        sid = self._epoch_sids.pop(ep.uid, None)
        if sid is None:  # epoch opened before the recorder existed
            sid = self.begin("epoch", rank=rank, win=win, epoch=ep.uid,
                             meta={"kind": ep.kind.value})
        self.end(sid)
        # Every op of a completed epoch is delivered: all of them, in call order.
        ops = [times for _uid, times in sorted(self._op_times.pop(ep.uid, ()))]
        self.epochs.append(
            EpochRecord(
                ep.uid, ep.kind.value, rank, win, sid,
                ep.open_time, ep.activate_time, ep.close_call_time,
                ep.complete_time, ops,
            )
        )

    # -- graph helpers ---------------------------------------------------
    def resolve_epoch(self, span: Span, limit: int = 64) -> int:
        """Walk parents to find the epoch a span belongs to (-1 if the
        chain reaches the root without crossing an epoch-tagged span)."""
        cur: Span | None = span
        for _ in range(limit):
            if cur is None:
                return -1
            if cur.epoch >= 0:
                return cur.epoch
            cur = self.spans[cur.parent] if cur.parent is not None else None
        return -1

    def message_spans(self) -> list[Span]:
        """Completed message spans (the flow-event source)."""
        return [s for s in self.spans if s.kind == "msg" and s.t1 is not None]
