"""Deterministic fault plans: *what* goes wrong, *when*, and *to whom*.

A :class:`FaultPlan` is a pure-data description of an adversarial
substrate: per-packet fault rules (drop / duplicate / corrupt / delay)
gated by virtual-time windows and match-count windows, plus per-rank
faults (fixed slowdown, host-attention stalls, fail-stop).  The plan is
immutable and seedable; all randomness is derived statelessly from
``(seed, rule index, packet uid, match ordinal)`` via a splitmix64
mix, so

- the same plan on the same workload produces the *same* faults, byte
  for byte, run after run (the DES kernel already guarantees a
  deterministic packet stream);
- decisions for different packets are independent — inserting one extra
  message into a run does not reshuffle every later fault the way a
  shared stream-consuming RNG would.

The plan is interpreted by :class:`~repro.faults.injector.FaultInjector`
inside the fabric.  Any plan also arms the reliability layer
(:mod:`repro.faults.reliability`), which retries by the plan's
:attr:`FaultPlan.retry` policy.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from ..network.packets import ServiceKind

__all__ = [
    "FaultKind",
    "FaultRule",
    "RankFault",
    "FaultPlan",
    "ReliabilityConfig",
    "fault_hash",
    "splitmix64",
    "mix_hash",
]

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One splitmix64 finalization round (the shared stateless mixer
    behind :func:`fault_hash` and the :mod:`repro.explore` schedule
    perturbations — one keyed-draw primitive for every seeded subsystem)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


_splitmix64 = splitmix64


def mix_hash(*parts: int) -> int:
    """Fold integer coordinates into one 64-bit hash (stateless)."""
    h = 0x243F6A8885A308D3
    for p in parts:
        h = splitmix64(h ^ (p & _MASK64))
    return h


def fault_hash(*parts: int) -> float:
    """Stateless uniform draw in ``[0, 1)`` from integer coordinates.

    Used for every per-packet fault decision; see the module docstring
    for why this beats a shared consuming RNG.
    """
    return mix_hash(*parts) / 2.0**64


class FaultKind(enum.Enum):
    """What a :class:`FaultRule` does to a matched packet."""

    DROP = "drop"            # packet consumes wire time but never arrives
    DUPLICATE = "duplicate"  # a ghost copy arrives shortly after the real one
    CORRUPT = "corrupt"      # arrives damaged; the receiver's CRC discards it
    DELAY = "delay"          # delivery is postponed by ``delay_us``


@dataclass(frozen=True)
class FaultRule:
    """One per-packet fault channel.

    A packet *matches* when its source/destination/service filters agree
    and the current virtual time lies in ``[start_us, stop_us)``.  Each
    match increments the rule's ordinal counter; the fault *fires* when
    the ordinal lies in ``[start_count, stop_count)`` and the stateless
    draw for (plan seed, rule, packet uid, ordinal) falls below
    ``rate``.  Retransmissions of a packet re-match with a fresh
    ordinal, so a dropped packet is not doomed to be dropped forever.
    """

    kind: FaultKind
    rate: float
    delay_us: float = 0.0
    src: int | None = None
    dst: int | None = None
    service: ServiceKind | None = None
    start_us: float = 0.0
    stop_us: float = math.inf
    start_count: int = 0
    stop_count: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.kind is FaultKind.DELAY and self.delay_us <= 0.0:
            raise ValueError("DELAY rules need a positive delay_us")
        if self.delay_us < 0.0:
            raise ValueError(f"negative delay_us: {self.delay_us}")
        if self.start_us > self.stop_us:
            raise ValueError("start_us must not exceed stop_us")
        if self.stop_count is not None and self.start_count > self.stop_count:
            raise ValueError("start_count must not exceed stop_count")

    def matches(self, src: int, dst: int, service: ServiceKind, now: float) -> bool:
        """Packet-level filter (time window + endpoints + service)."""
        return (
            (self.src is None or self.src == src)
            and (self.dst is None or self.dst == dst)
            and (self.service is None or self.service is service)
            and self.start_us <= now < self.stop_us
        )

    def fires(self, ordinal: int) -> bool:
        """Count-window gate for the rule's ``ordinal``-th match."""
        if ordinal < self.start_count:
            return False
        return self.stop_count is None or ordinal < self.stop_count


@dataclass(frozen=True)
class RankFault:
    """Per-rank misbehaviour.

    Attributes
    ----------
    slow_extra_us:
        Added to the delivery of every packet to or from the rank from
        ``slow_start_us`` on — a uniformly slow peer (swapping host,
        thermal throttling).
    stalls:
        ``(at_us, duration_us)`` pairs; at each ``at_us`` the rank's
        host-attention gate is stalled for ``duration_us`` — control
        packets needing the host queue up meanwhile.
    fail_at_us:
        Fail-stop instant: from this time on, every packet to or from
        the rank is dropped.  With the reliability layer this surfaces
        as :class:`~repro.mpi.errors.RmaDeliveryError` once retries
        exhaust.
    """

    rank: int
    slow_extra_us: float = 0.0
    slow_start_us: float = 0.0
    stalls: tuple[tuple[float, float], ...] = ()
    fail_at_us: float | None = None

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"negative rank: {self.rank}")
        if self.slow_extra_us < 0.0:
            raise ValueError(f"negative slow_extra_us: {self.slow_extra_us}")


@dataclass(frozen=True)
class ReliabilityConfig:
    """The reliability layer's retry policy (:attr:`FaultPlan.retry`).

    ``rto_us`` is the patience *beyond the expected delivery instant* of
    an attempt — the fabric knows each attempt's scheduled arrival time,
    so the timer need not guess serialization delays.  Attempt ``n``
    (1-based) waits ``rto_us * backoff**(n-1)`` past its expected
    delivery before retransmitting; after ``max_attempts``
    transmissions the packet is declared undeliverable.
    """

    rto_us: float = 25.0
    backoff: float = 2.0
    max_attempts: int = 8
    ack_bytes: int = 8

    def __post_init__(self) -> None:
        if self.rto_us <= 0:
            raise ValueError(f"rto_us must be positive, got {self.rto_us}")
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")

    def rto_for_attempt(self, attempt: int) -> float:
        """Patience after the expected delivery of 1-based ``attempt``."""
        return self.rto_us * self.backoff ** (attempt - 1)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, immutable chaos schedule for one run."""

    seed: int = 0
    rules: tuple[FaultRule, ...] = ()
    ranks: tuple[RankFault, ...] = ()
    #: How far behind the genuine arrival an injected ghost copy lands.
    duplicate_lag_us: float = 5.0
    #: Retry policy of the reliability layer every plan arms.
    retry: ReliabilityConfig = ReliabilityConfig()

    @classmethod
    def light_chaos(
        cls,
        seed: int,
        drop: float = 0.01,
        duplicate: float = 0.005,
        corrupt: float = 0.0,
        delay_rate: float = 0.01,
        delay_us: float = 25.0,
        ranks: tuple[RankFault, ...] = (),
    ) -> "FaultPlan":
        """The acceptance-grade low-intensity plan: a few percent of
        drops, duplicates and delay spikes across all traffic."""
        rules = []
        if drop > 0:
            rules.append(FaultRule(FaultKind.DROP, drop))
        if duplicate > 0:
            rules.append(FaultRule(FaultKind.DUPLICATE, duplicate))
        if corrupt > 0:
            rules.append(FaultRule(FaultKind.CORRUPT, corrupt))
        if delay_rate > 0:
            rules.append(FaultRule(FaultKind.DELAY, delay_rate, delay_us=delay_us))
        return cls(seed=seed, rules=tuple(rules), ranks=ranks)

    def describe(self) -> str:
        """One-line human-readable summary (used in diagnostics)."""
        bits = [f"seed={self.seed}"]
        for r in self.rules:
            extra = f"+{r.delay_us}µs" if r.kind is FaultKind.DELAY else ""
            bits.append(f"{r.kind.value}@{100 * r.rate:g}%{extra}")
        for rf in self.ranks:
            if rf.fail_at_us is not None:
                bits.append(f"rank{rf.rank}:fail@{rf.fail_at_us}µs")
            if rf.slow_extra_us:
                bits.append(f"rank{rf.rank}:slow+{rf.slow_extra_us}µs")
            if rf.stalls:
                bits.append(f"rank{rf.rank}:{len(rf.stalls)}stalls")
        return " ".join(bits)
