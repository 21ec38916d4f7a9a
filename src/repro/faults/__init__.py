"""repro.faults — deterministic fault injection and the reliability
layer that lets the RMA stack survive it.

The paper's own evaluation met its limits at the substrate: §VIII-B
reports a flow-control issue capping transaction scaling past 512
processes.  This package makes adversity a first-class, reproducible
input to every experiment:

- :class:`FaultPlan` / :class:`FaultRule` / :class:`RankFault` — a
  seeded, immutable chaos schedule (drop, duplicate, corrupt, delay;
  slow peers, host-attention stalls, fail-stop) with virtual-time and
  match-count triggers (:mod:`repro.faults.plan`);
- :class:`FaultInjector` — interprets a plan inside the fabric
  (:mod:`repro.faults.injector`);
- :class:`ReliabilityLayer` — per-peer sequence numbers, ack/timeout
  retransmission with capped exponential backoff, duplicate
  suppression and in-order admission, surfacing
  :class:`~repro.mpi.errors.RmaDeliveryError` when retries exhaust
  (:mod:`repro.faults.reliability`).

Whether a plan changed the answer is the differential oracle's
question: run a workload with and without the plan and compare their
:class:`~repro.explore.digest.OutcomeDigest` (answer, final window
bytes, checker verdict, ω audit); ``docs/FAULTS.md`` has the recipe.

Attach a plan to a runtime with
``MPIRuntime(n, fault_plan=FaultPlan.light_chaos(seed=7))``; any plan
arms the reliability layer, which retries by the plan's ``retry``
policy (a :class:`ReliabilityConfig`).  See
``docs/FAULTS.md`` for the fault model, determinism guarantees and the
retry protocol.
"""

from ..mpi.errors import RmaDeliveryError
from .injector import Disposition, FaultInjector
from .plan import (
    FaultKind,
    FaultPlan,
    FaultRule,
    RankFault,
    ReliabilityConfig,
    fault_hash,
    mix_hash,
    splitmix64,
)
from .reliability import ReliabilityLayer

__all__ = [
    "FaultKind",
    "FaultRule",
    "RankFault",
    "FaultPlan",
    "fault_hash",
    "mix_hash",
    "splitmix64",
    "Disposition",
    "FaultInjector",
    "ReliabilityConfig",
    "ReliabilityLayer",
    "RmaDeliveryError",
]
