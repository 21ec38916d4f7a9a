"""The differential sweep over the test matrix.

The oracle's design is the paper's test matrix grown by one column:
every workload runs on four engine series — **MVAPICH** (baseline
engine, blocking calls), **New** (redesigned engine, blocking calls),
**New nonblocking** (redesigned engine, i* calls) and **Signal**
(counter-signal engine, i* calls) — under identical explored schedules,
and their :class:`~repro.explore.digest.OutcomeDigest`\\ s are compared:

- the ``strict`` digest part must agree across *everything* (engines ×
  schedules): the application answer, final window bytes, checker
  verdict and ω-invariant audit are schedule- and engine-independent
  facts about a correct stack;
- the ``engine_only`` part must agree across *schedules within one
  variant*: notification traffic differs legitimately between the
  engine designs but may never depend on the schedule.

Workloads are deliberately small instances of the real apps — big
enough to produce cross-rank traffic on every synchronization style
(fence, GATS, exclusive/shared locks, persistent collectives), small
enough that a 4-series × N-schedule sweep stays in CI-smoke territory.
The rows and columns of the matrix are :mod:`repro.workloads`' tables
(``WORKLOADS`` and ``SERIES``; a run's ``variant`` is its series name);
this module owns the sweep and the digest comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..workloads import SERIES, Series, get_workload, workload_names
from .context import ExplorationContext
from .digest import OutcomeDigest, build_digest, diff_digests
from .policy import PerturbationSpec, specs_for

__all__ = [
    "RunOutcome",
    "ExploreReport",
    "run_workload",
    "explore",
]


# ---------------------------------------------------------------------------
# Single runs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunOutcome:
    """One (workload, series, schedule) run and its digest; ``variant``
    is the series name."""

    workload: str
    variant: str
    spec: PerturbationSpec | None
    digest: OutcomeDigest
    #: Perturbation ids the policy actually applied (shrinker input).
    applied: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "workload": self.workload,
            "variant": self.variant,
            "spec": self.spec.to_json() if self.spec is not None else None,
            "strict_sha": self.digest.strict_sha,
            "engine_sha": self.digest.engine_sha,
            "applied": list(self.applied),
        }


def run_workload(
    workload: str,
    series: Series,
    spec: PerturbationSpec | None,
) -> RunOutcome:
    """Execute one workload once under one explored schedule.

    ``spec=None`` runs the unperturbed baseline schedule (still fully
    digest-instrumented).  Deterministic: the same arguments always
    return a byte-identical digest — that is the replay guarantee the
    CLI's ``replay`` subcommand and the shrinker both rest on.
    """
    w = get_workload(workload)
    context = ExplorationContext.from_spec(spec)
    result = w.oracle(series.engine, series.nonblocking, context)
    digest = build_digest(context, result)
    applied = tuple(context.policy.applied) if context.policy is not None else ()
    return RunOutcome(workload, series.name, spec, digest, applied)


# ---------------------------------------------------------------------------
# The sweep
# ---------------------------------------------------------------------------

@dataclass
class ExploreReport:
    """Everything one differential sweep produced."""

    runs: list[RunOutcome]
    #: Detected disagreements (empty = the stack passed this sweep).
    mismatches: list[dict]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "runs": [r.to_json() for r in self.runs],
            "mismatches": self.mismatches,
        }


def _spec_seed(spec: PerturbationSpec | None):
    return spec.seed if spec is not None else None


def explore(
    workloads: list[str] | None = None,
    nschedules: int = 4,
    base_seed: int = 0x5EED,
    max_extra_us: float = 0.5,
    series: tuple[Series, ...] = SERIES,
    specs: list[PerturbationSpec] | None = None,
) -> ExploreReport:
    """Run the differential sweep: every workload × every series ×
    (baseline + ``nschedules`` explored schedules), then cross-check the
    digests (strict across everything; engine-only across schedules
    within a series)."""
    names = list(workloads) if workloads else list(workload_names())
    if specs is None:
        specs = specs_for(nschedules, base_seed=base_seed, max_extra_us=max_extra_us)
    all_specs: list[PerturbationSpec | None] = [None, *specs]
    runs: list[RunOutcome] = []
    mismatches: list[dict] = []

    for name in names:
        matrix: dict[tuple[str, int | None], RunOutcome] = {}
        for s in series:
            for spec in all_specs:
                run = run_workload(name, s, spec)
                matrix[(s.name, _spec_seed(spec))] = run
                runs.append(run)

        # Strict oracle: every run of this workload must agree with the
        # baseline run of the first series.
        ref = matrix[(series[0].name, None)]
        for (vname, seed), run in matrix.items():
            if run.digest.strict_sha != ref.digest.strict_sha:
                mismatches.append({
                    "kind": "strict",
                    "workload": name,
                    "variant": vname,
                    "seeds": [seed],
                    "against": {"variant": ref.variant, "seed": None},
                    "paths": diff_digests(ref.digest.strict, run.digest.strict)[:20],
                })

        # Engine-only oracle: within one series, every schedule must
        # reproduce the series' baseline notification/ω behavior.
        for s in series:
            vref = matrix[(s.name, None)]
            for spec in specs:
                run = matrix[(s.name, spec.seed)]
                if run.digest.engine_sha != vref.digest.engine_sha:
                    mismatches.append({
                        "kind": "engine_only",
                        "workload": name,
                        "variant": s.name,
                        "seeds": [spec.seed],
                        "against": {"variant": s.name, "seed": None},
                        "paths": diff_digests(
                            vref.digest.engine_only, run.digest.engine_only
                        )[:20],
                    })

    return ExploreReport(runs=runs, mismatches=mismatches)
