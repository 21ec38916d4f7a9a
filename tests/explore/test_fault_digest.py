"""Faults may change the timeline, never the answer — on the full digest.

Every app-backed row of :mod:`repro.workloads` runs on all four
``SERIES`` fault-free and under each seeded :class:`FaultPlan` below, and
the explorer's :class:`~repro.explore.digest.OutcomeDigest` of each
faulty run must equal the fault-free run's: the ``strict`` part (answer,
final window bytes, checker verdict, ω audit) and the ``engine_only``
part (delivered notifications, raw ω counters).  The reliability layer
must repair every drop, duplicate and corruption below the engines, so
not even the notification multiset may move.  A return value alone is
not enough: two stacks can agree on it and still leave different
memory.

``ordering`` and ``coll`` run no app config, so they take no fault plan.
"""

from __future__ import annotations

import pytest

from repro.explore import ExplorationContext, build_digest
from repro.faults import FaultPlan, RankFault
from repro.workloads import SERIES, WORKLOADS

#: The rows whose runner builds an app config (and so takes ``fault_plan``).
APP_ROWS = sorted(set(WORKLOADS) - {"ordering", "coll"})

PLANS = {
    # The acceptance mix plus one uniformly slow rank.
    "acceptance-slow2": FaultPlan.light_chaos(
        9, drop=0.02, duplicate=0.01, delay_rate=0.02, delay_us=40.0,
        ranks=(RankFault(2, slow_extra_us=15.0),),
    ),
    # Heavier: more drops and duplicates, plus corruption.
    "heavy-corrupt": FaultPlan.light_chaos(
        99, drop=0.05, duplicate=0.02, corrupt=0.02, delay_rate=0.05, delay_us=50.0,
    ),
}


def _digest(workload: str, series, plan: FaultPlan | None):
    w = WORKLOADS[workload]
    ctx = ExplorationContext()
    result, runtime = w.run(series.engine, series.nonblocking, exploration=ctx,
                            fault_plan=plan, causal=True, **w.small)
    return build_digest(ctx, w.answer(result)), runtime.stats()


@pytest.mark.parametrize("series", SERIES, ids=[s.name for s in SERIES])
@pytest.mark.parametrize("workload", APP_ROWS)
def test_fault_plans_leave_the_digest_unchanged(workload, series):
    clean, stats = _digest(workload, series, None)
    assert not stats.faults_injected
    for name, plan in PLANS.items():
        faulty, stats = _digest(workload, series, plan)
        assert sum(stats.faults_injected.values()) > 0, f"{name} injected nothing"
        assert faulty.strict_sha == clean.strict_sha, name
        assert faulty.engine_sha == clean.engine_sha, name
