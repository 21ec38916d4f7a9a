"""The per-run exploration context threaded through the runtime.

:class:`ExplorationContext` is the one object a workload passes down to
:class:`~repro.mpi.runtime.MPIRuntime` (via the apps' ``exploration``
config field) to opt a run into schedule exploration.  It bundles

- the :class:`~repro.explore.policy.SchedulePolicy` the DES kernel
  consults for every scheduled callback,
- the delivered-notification log the engines feed (every epoch-done and
  grant notification actually *received*, whatever transport carried
  it), and
- the finished runtimes, registered by ``MPIRuntime`` itself, which the
  digest builder walks for final window memory and ω counters.

The runtime only duck-types this object (``policy``,
``record_notification``, ``attach_runtime``), so :mod:`repro.mpi` never
imports :mod:`repro.explore`.  Its presence alone arms the semantics
checker in report mode on every window whose info leaves
``repro.semantics_check`` unset
(:meth:`~repro.mpi.runtime.MPIRuntime._apply_exploration_info`), so
violations become digest components instead of aborting the run.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .policy import PerturbationSpec, SchedulePolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mpi.runtime import MPIRuntime

__all__ = ["ExplorationContext"]


@dataclass
class ExplorationContext:
    """Everything one explored run carries (one instance per run)."""

    policy: SchedulePolicy | None = None
    #: Multiset of delivered notifications: (rank, kind, sender, value)
    #: -> count.  Fed by the engines' reception handlers.
    notifications: Counter = field(default_factory=Counter)
    #: Runtimes built under this context, in construction order.
    runtimes: "list[MPIRuntime]" = field(default_factory=list)

    @classmethod
    def from_spec(cls, spec: PerturbationSpec | None) -> "ExplorationContext":
        """Fresh context for one run of one schedule (``spec=None`` =
        the baseline schedule, still digest-instrumented)."""
        policy = SchedulePolicy(spec) if spec is not None else None
        return cls(policy=policy)

    # -- hooks the runtime/engines call (duck-typed) -----------------------
    def attach_runtime(self, runtime: "MPIRuntime") -> None:
        self.runtimes.append(runtime)

    def record_notification(self, rank: int, kind: str, sender: int, value: int) -> None:
        """One notification delivered at ``rank`` (transport-agnostic:
        shared-memory FIFO packets and control packets log the same)."""
        self.notifications[(rank, kind, sender, value)] += 1

    # -- report helpers ----------------------------------------------------
    def notification_multiset(self) -> list[list]:
        """Canonical JSON-stable form of the delivered multiset."""
        return [
            [rank, kind, sender, value, count]
            for (rank, kind, sender, value), count in sorted(self.notifications.items())
        ]

    def sched_counters(self) -> dict[str, float]:
        """The policy's perturbation counters ({} for baseline runs)."""
        return self.policy.counters() if self.policy is not None else {}
