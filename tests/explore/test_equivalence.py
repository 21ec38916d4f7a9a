"""Cross-engine differential equivalence (the tentpole's oracle).

Every workload — all five real apps plus the ordering microworkload —
must produce an identical strict outcome digest on all four engine
series of the paper's test matrix, under the baseline schedule and
under explored schedules; and each series' engine-only digest must be
schedule-independent.  This is satellite-free territory: any failure
here is an engine bug (or an oracle bug), never flakiness — everything
is replayable from the seeds in the failure report.
"""

from __future__ import annotations

import pytest

from repro.explore import explore, run_workload, specs_for
from repro.workloads import SERIES, workload_names

_SCHEDULES = 3
_BASE_SEED = 0x5EED


@pytest.mark.parametrize("workload", workload_names())
def test_workload_equivalent_across_engines_and_schedules(workload):
    report = explore(workloads=[workload], nschedules=_SCHEDULES,
                     base_seed=_BASE_SEED)
    assert report.ok, "\n".join(
        f"[{m['kind']}] {m['workload']}/{m['variant']} seeds={m['seeds']}: "
        + "; ".join(m["paths"][:5])
        for m in report.mismatches
    )
    # 4 series x (baseline + N schedules)
    assert len(report.runs) == len(SERIES) * (1 + _SCHEDULES)


@pytest.mark.parametrize("variant", SERIES, ids=lambda v: v.name)
def test_strict_digest_schedule_independent_per_variant(variant):
    """Spot-check the raw mechanism the sweep rests on: one workload,
    one series, several schedules, identical strict digests."""
    baseline = run_workload("factdb", variant, None)
    for spec in specs_for(2, base_seed=0xFACE):
        run = run_workload("factdb", variant, spec)
        assert run.digest.strict_sha == baseline.digest.strict_sha
