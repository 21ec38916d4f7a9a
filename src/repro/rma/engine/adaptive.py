"""Adaptive lazy/eager lock engine — the strategy of the paper's
reference [12] (Zhao, Santhanaraman, Gropp: "Adaptive Strategy for
One-Sided Communication in MPICH2").

The baseline's lazy lock acquisition is immune to Late Unlock but gets
zero communication/computation overlap; eager acquisition is the
reverse (§VIII-A, Fig. 6).  The adaptive strategy learns per
(window, target) which mode pays off:

- every pair starts **lazy** (the safe default);
- when a lock epoch closes, the engine inspects it: if the application
  spent noticeable time between its last communication call and the
  closing call — overlappable work that laziness wasted — the pair is
  promoted to **eager**: subsequent lock epochs acquire at the opening
  call, so transfers overlap the work;
- an eager epoch that shows no such gap demotes the pair back to lazy.

Everything else (GATS, fence, blocking-only API) is inherited from the
baseline, which keeps the comparison honest: the only difference is the
lock-acquisition policy.

Graceful degradation under faults
---------------------------------
Eager acquisition buys overlap by spending extra wire traffic early.
Under heavy loss that trade inverts: every eagerly issued packet is
another retransmission candidate, and speculative lock traffic competes
with recovery traffic for credits.  When the reliability layer's
retransmission count crosses :data:`DEGRADE_RETRY_THRESHOLD` the engine
*degrades*: all eager pairs are demoted, promotion is disabled, and
epochs fall back to the baseline's conservative activate-at-close
behaviour for the rest of the run (a one-way fuse, traced as
``degrade``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..epoch import Epoch, EpochKind
from ..ops import RmaOp
from ..requests import ClosingRequest
from .mvapich import MvapichEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..window import Window

__all__ = ["AdaptiveEngine", "ADAPT_THRESHOLD_US", "DEGRADE_RETRY_THRESHOLD"]

#: Gap between the last RMA call and the closing call above which the
#: epoch is judged to have had overlappable work.
ADAPT_THRESHOLD_US = 5.0

#: Job-wide reliability-layer retransmission count past which the engine
#: abandons eager acquisition for the rest of the run.
DEGRADE_RETRY_THRESHOLD = 16


class AdaptiveEngine(MvapichEngine):
    """Per-target lazy/eager switching on top of the baseline, whose
    progress loop and ready sets it inherits unchanged: eager activation
    in :meth:`open_lock` goes through the baseline's ``_activate_lock``,
    which makes the epoch's granted ops due and marks the window if any is."""

    __slots__ = ("_eager_pairs", "mode_switches", "degraded", "_called")

    def __init__(self, runtime, rank):
        super().__init__(runtime, rank)
        #: (window gid, target) pairs currently in eager mode.
        self._eager_pairs: set[tuple[int, int]] = set()
        #: Promotion/demotion events, for tests and diagnostics.
        self.mode_switches: list[tuple[float, int, int, str]] = []
        #: Set once retry pressure forces conservative-only operation.
        self.degraded = False
        #: Targets each open lock / lock_all epoch has called, what
        #: :meth:`_learn` judges at its close.
        self._called: dict[Epoch, set[int]] = {}

    # -- mode bookkeeping -----------------------------------------------
    def is_eager(self, gid: int, target: int) -> bool:
        """Whether lock epochs toward (window, target) acquire eagerly."""
        return (gid, target) in self._eager_pairs

    def _set_mode(self, gid: int, target: int, eager: bool) -> None:
        key = (gid, target)
        if eager and key not in self._eager_pairs:
            self._eager_pairs.add(key)
            self.mode_switches.append((self.sim.now, gid, target, "eager"))
        elif not eager and key in self._eager_pairs:
            self._eager_pairs.discard(key)
            self.mode_switches.append((self.sim.now, gid, target, "lazy"))
        else:
            return
        if self.causal is not None:
            self.causal.instant(
                "mode_switch", rank=self.rank, win=gid,
                meta={"target": target, "mode": "eager" if eager else "lazy"},
            )

    def _retry_pressure(self) -> int:
        rel = self.fabric.reliability
        return rel.retransmissions if rel is not None else 0

    def _check_degrade(self) -> bool:
        """Trip the fuse when retry pressure crosses the threshold."""
        if self.degraded:
            return True
        if self._retry_pressure() < DEGRADE_RETRY_THRESHOLD:
            return False
        self.degraded = True
        now = self.sim.now
        for gid, target in sorted(self._eager_pairs):
            self.mode_switches.append((now, gid, target, "lazy"))
        self._eager_pairs.clear()
        return True

    # -- policy hooks -----------------------------------------------------
    def open_lock(
        self, win: "Window", target: int, exclusive: bool, nocheck: bool = False
    ) -> Epoch:
        ep = super().open_lock(win, target, exclusive, nocheck)
        if self._check_degrade():
            return ep
        if not nocheck and self.is_eager(win.group.gid, target):
            # Eager mode: acquire at the opening call so recorded ops can
            # issue (and overlap application work) as soon as granted.
            self._activate_lock(self.state_of(win), ep)
            self.poke()
        return ep

    def add_op(self, win: "Window", ep: Epoch, op: RmaOp) -> RmaOp:
        if ep.kind is EpochKind.LOCK or ep.kind is EpochKind.LOCK_ALL:
            self._called.setdefault(ep, set()).add(op.target)
        return super().add_op(win, ep, op)

    def close_epoch(self, win: "Window", ep: Epoch) -> ClosingRequest:
        if ep.kind is EpochKind.LOCK or ep.kind is EpochKind.LOCK_ALL:
            self._learn(win, ep, self._called.pop(ep, ()))
        return super().close_epoch(win, ep)

    def _learn(self, win: "Window", ep: Epoch, called: "set[int] | tuple[()]") -> None:
        """Promote/demote the targets the epoch ``called``, based on the
        observed gap between the last communication call and this
        closing call."""
        if ep.nocheck or ep.last_call_time is None or self._check_degrade():
            return
        gid = win.group.gid
        overlappable = (self.sim.now - ep.last_call_time) > ADAPT_THRESHOLD_US
        # Sorted is ``ep.targets`` order: a lock epoch's targets ascend.
        for target in sorted(called):
            self._set_mode(gid, target, overlappable)
