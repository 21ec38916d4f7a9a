"""The fault injector: interprets a :class:`~repro.faults.plan.FaultPlan`
inside the fabric.

The fabric consults the injector at two points:

- :meth:`FaultInjector.disposition` when a transmission attempt is put
  on the wire — returns what happens to that attempt (dropped,
  corrupted-then-CRC-discarded, delayed, duplicated);
- :meth:`FaultInjector.ack_disposition` for the reliability layer's ack
  packets, which ride below the fabric's port model but are just as
  droppable (a lost ack is how genuine duplicates arise).

Rank-level faults (attention stalls) are scheduled onto the simulator by
:meth:`install`; fail-stop and slow-peer behaviour is folded into the
per-packet disposition.

All counters on :attr:`counters` are deterministic for a given
(plan, workload) pair — the acceptance tests assert bitwise-identical
counter dictionaries across repeated runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .plan import FaultKind, FaultPlan, fault_hash

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..network.fabric import Fabric
    from ..network.packets import SendTicket
    from ..simtime import Simulator

__all__ = ["Disposition", "FaultInjector"]


@dataclass
class Disposition:
    """What the fabric should do with one transmission attempt."""

    drop: bool = False
    corrupt: bool = False
    duplicate: bool = False
    delay_us: float = 0.0
    #: Which channel produced the loss ("drop", "corrupt", "failstop").
    reason: str | None = None

    @property
    def lost(self) -> bool:
        """Whether the attempt never (usably) arrives."""
        return self.drop or self.corrupt


class FaultInjector:
    """Per-run interpreter of one :class:`FaultPlan`."""

    def __init__(self, sim: "Simulator", plan: FaultPlan):
        self.sim = sim
        self.plan = plan
        #: Per-rule ordinal counters (see :meth:`FaultRule.fires`).
        self._rule_matches = [0] * len(plan.rules)
        #: Separate per-rule ordinals for ack packets (acks carry no
        #: message uid and must not perturb data-packet ordinals).
        self._ack_rule_matches = [0] * len(plan.rules)
        #: Ticket uids are process-global; fault draws use offsets from
        #: the first uid this run shows us, so a plan reproduces the
        #: same faults no matter how many runtimes ran before it.
        self._uid_base: int | None = None
        self._slow = {rf.rank: rf for rf in plan.ranks if rf.slow_extra_us > 0}
        self._dead = {
            rf.rank: rf.fail_at_us for rf in plan.ranks if rf.fail_at_us is not None
        }
        self.counters: dict[str, int] = {
            "drops": 0,
            "duplicates": 0,
            "corruptions": 0,
            "delays": 0,
            "failstop_drops": 0,
            "ack_drops": 0,
            "ack_delays": 0,
            "stalls": 0,
        }

    # -- wiring ----------------------------------------------------------
    def install(self, fabric: "Fabric") -> None:
        """Schedule the plan's rank-level timeline (attention stalls)."""
        for rf in self.plan.ranks:
            gate = fabric.attention[rf.rank]
            for at_us, duration_us in rf.stalls:
                self.sim.schedule(at_us, self._stall, gate, duration_us)

    def _stall(self, gate, duration_us: float) -> None:
        self.counters["stalls"] += 1
        gate.force_stall(duration_us)

    def _rel_uid(self, uid: int) -> int:
        if self._uid_base is None:
            self._uid_base = uid
        return uid - self._uid_base

    # -- queries ---------------------------------------------------------
    def rank_dead(self, rank: int, now: float) -> bool:
        """Whether ``rank`` has fail-stopped by virtual time ``now``."""
        at = self._dead.get(rank)
        return at is not None and now >= at

    def _slow_extra(self, src: int, dst: int, now: float) -> float:
        extra = 0.0
        for rank in (src, dst):
            rf = self._slow.get(rank)
            if rf is not None and now >= rf.slow_start_us:
                extra += rf.slow_extra_us
        return extra

    def disposition(self, ticket: "SendTicket", attempt: int, now: float) -> Disposition:
        """Fate of one transmission attempt of ``ticket``.

        ``attempt`` (counted from the last delivery) feeds the stateless
        draw with ``ticket.uid``, so retransmissions of the same packet
        get independent decisions.
        """
        d = Disposition()
        uid = self._rel_uid(ticket.uid)
        if self.rank_dead(ticket.src, now) or self.rank_dead(ticket.dst, now):
            d.drop = True
            d.reason = "failstop"
            self.counters["failstop_drops"] += 1
            return d
        d.delay_us = self._slow_extra(ticket.src, ticket.dst, now)
        for i, rule in enumerate(self.plan.rules):
            if not rule.matches(ticket.src, ticket.dst, ticket.kind, now):
                continue
            ordinal = self._rule_matches[i]
            self._rule_matches[i] += 1
            if not rule.fires(ordinal):
                continue
            if fault_hash(self.plan.seed, i, uid, attempt) >= rule.rate:
                continue
            if rule.kind is FaultKind.DROP:
                d.drop = True
                d.reason = d.reason or "drop"
                self.counters["drops"] += 1
            elif rule.kind is FaultKind.CORRUPT:
                d.corrupt = True
                d.reason = d.reason or "corrupt"
                self.counters["corruptions"] += 1
            elif rule.kind is FaultKind.DUPLICATE:
                d.duplicate = True
                self.counters["duplicates"] += 1
            elif rule.kind is FaultKind.DELAY:
                d.delay_us += rule.delay_us
                self.counters["delays"] += 1
        return d

    def ack_disposition(self, src: int, dst: int, now: float) -> Disposition:
        """Fate of one reliability-layer ack from ``src`` to ``dst``.

        Acks match the plan's wildcard-service DROP and DELAY rules
        (they are link-level control: too small to corrupt usefully, and
        duplicating an idempotent ack is a no-op).
        """
        d = Disposition()
        if self.rank_dead(src, now) or self.rank_dead(dst, now):
            d.drop = True
            d.reason = "failstop"
            self.counters["failstop_drops"] += 1
            return d
        d.delay_us = self._slow_extra(src, dst, now)
        for i, rule in enumerate(self.plan.rules):
            if rule.service is not None or rule.kind not in (
                FaultKind.DROP,
                FaultKind.DELAY,
            ):
                continue
            if rule.src is not None and rule.src != src:
                continue
            if rule.dst is not None and rule.dst != dst:
                continue
            if not rule.start_us <= now < rule.stop_us:
                continue
            ordinal = self._ack_rule_matches[i]
            self._ack_rule_matches[i] += 1
            if not rule.fires(ordinal):
                continue
            # Acks draw from a dedicated coordinate space (-1) so their
            # decisions never collide with a data packet's.
            if fault_hash(self.plan.seed, i, -1, ordinal) >= rule.rate:
                continue
            if rule.kind is FaultKind.DROP:
                d.drop = True
                d.reason = "drop"
                self.counters["ack_drops"] += 1
            else:
                d.delay_us += rule.delay_us
                self.counters["ack_delays"] += 1
        return d
