"""repro.explore — seeded schedule exploration with a differential oracle.

The DES kernel is deterministic: one workload, one schedule.  Real RMA
stacks are not — epoch races live in the orderings a single schedule
never shows.  This package turns the kernel's determinism into a
*controlled* nondeterminism, PCT-style:

- :mod:`~repro.explore.policy` derives a seeded family of legal
  schedules (priority shuffles + bounded extra delays over
  same-timestamp events, whole-lane coherent, splitmix64-keyed like
  :mod:`repro.faults` — one seed replays one schedule byte for byte);
- :mod:`~repro.explore.runner` runs each workload on all four engine
  series of the paper's test matrix (:mod:`repro.workloads`) under
  identical schedules and diffs canonical outcome digests
  (:mod:`~repro.explore.digest`);
- :mod:`~repro.explore.shrink` delta-debugs a failing seed down to a
  minimal perturbation set;
- :mod:`~repro.explore.mutation` provides known-bad engine mutations so
  the suite can prove the oracle catches real ordering bugs.

CLI: ``python -m repro.explore run|replay|shrink`` (``--json`` for CI).
Pytest: the ``exploration`` fixture (:mod:`~repro.explore.pytest_plugin`).
"""

from .context import ExplorationContext
from .digest import OutcomeDigest, build_digest, canonical_json, diff_digests
from .policy import PerturbationSpec, SchedulePolicy, specs_for
from .runner import ExploreReport, RunOutcome, explore, run_workload
from .shrink import ShrinkResult, shrink

__all__ = [
    "ExplorationContext",
    "OutcomeDigest",
    "build_digest",
    "canonical_json",
    "diff_digests",
    "PerturbationSpec",
    "SchedulePolicy",
    "specs_for",
    "RunOutcome",
    "ExploreReport",
    "explore",
    "run_workload",
    "ShrinkResult",
    "shrink",
]
