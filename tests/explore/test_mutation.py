"""The explorer's self-test: prove it catches a real ordering bug.

A deliberate mutation (disabling the §VII-A activation gate, so the
deferred-epoch scan skips blocked epochs instead of stopping) is enabled
behind a test-only flag, and the differential sweep must (1) detect the
divergence within a 64-schedule budget, (2) replay the failing seed to a
byte-identical digest, and (3) shrink it to a minimal perturbation set
that still fails.

The four ready-set mutants (a dropped wake-up each) must die differently:
as a deadlock, never as a digest mismatch.  The two that drop a row only
the MVAPICH baseline has (its gate count, its drain-wide done) must fall
to the explorer's own command within 8 schedules.
"""

from __future__ import annotations

import pytest

from repro.explore import explore, run_workload, shrink, specs_for
from repro.explore.__main__ import main
from repro.explore.mutation import (
    activation_gate_disabled,
    done_arrival_uncounted,
    drain_wakeup_dropped,
    gate_grant_uncounted,
    grant_target_wakeup_dropped,
    lock_grant_wakeup_dropped,
    op_delivered_wakeup_dropped,
)
from repro.rma.engine.nonblocking import NonblockingEngine
from repro.simtime import SimulationDeadlock
from repro.workloads import SERIES

_NEW_NB = SERIES[2]  # the series that exercises deferred epochs
_SIGNAL = SERIES[3]  # signal engine: inherits the same deferral path


def test_gate_flag_restored_even_on_error():
    assert NonblockingEngine._activation_gate is True
    try:
        with activation_gate_disabled():
            assert NonblockingEngine._activation_gate is False
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert NonblockingEngine._activation_gate is True


def test_sweep_finds_the_mutation_within_64_schedules():
    with activation_gate_disabled():
        report = explore(workloads=["ordering"], nschedules=64)
    assert not report.ok
    strict = [m for m in report.mismatches if m["kind"] == "strict"]
    # the bug lives in deferred-epoch activation: only the variants
    # driven through the nonblocking call series (which both the ω and
    # the counter-signal engines defer) diverge — itself a diagnostic
    assert strict
    assert {m["variant"] for m in strict} == {_NEW_NB.name, _SIGNAL.name}
    # the divergence is in real outcomes, not timing: window memory and
    # the application answer
    joined = " ".join(p for m in strict for p in m["paths"])
    assert "memory" in joined and "result.read" in joined


def test_failing_seed_replays_deterministically():
    with activation_gate_disabled():
        report = explore(workloads=["ordering"], nschedules=4)
        assert not report.ok
        seed = next(s for m in report.mismatches for s in m["seeds"] if s is not None)
        spec = next(r.spec for r in report.runs
                    if r.spec is not None and r.spec.seed == seed
                    and r.variant == _NEW_NB.name)
        first = run_workload("ordering", _NEW_NB, spec)
        second = run_workload("ordering", _NEW_NB, spec)
    assert first.digest.to_json() == second.digest.to_json()
    # and the mutation is the cause: the same token is clean on the
    # healed engine
    healed = run_workload("ordering", _NEW_NB, spec)
    assert healed.digest.strict_sha != first.digest.strict_sha


def test_shrink_failing_seed_to_minimal_set():
    ref = run_workload("ordering", SERIES[0], None)
    with activation_gate_disabled():
        from repro.explore import PerturbationSpec

        spec = PerturbationSpec(seed=0xD15EA5E)
        full = run_workload("ordering", _NEW_NB, spec)
        assert full.digest.strict_sha != ref.digest.strict_sha
        assert full.applied

        def fails(candidate):
            run = run_workload("ordering", _NEW_NB, candidate)
            return run.digest.strict_sha != ref.digest.strict_sha

        result = shrink(spec, full.applied, fails, budget=64)
        # this mutation diverges regardless of which perturbations stay,
        # so ddmin must drive the set down to a single id
        assert len(result.ids) == 1
        assert result.minimal
        replay = run_workload("ordering", _NEW_NB, result.minimal_spec)
        assert replay.digest.strict_sha != ref.digest.strict_sha


# ---------------------------------------------------------------------------
# Ready-set wake-up mutants: a missed wake-up must be *loud*
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "mutant, workload",
    [
        (lock_grant_wakeup_dropped, "transactions"),
        (op_delivered_wakeup_dropped, "transactions"),
        (grant_target_wakeup_dropped, "lu"),
        (done_arrival_uncounted, "lu"),
    ],
    ids=["lock-grant", "op-delivered", "grant-target", "done-arrival"],
)
def test_dropped_wakeup_is_killed_as_a_deadlock_never_a_wrong_answer(mutant, workload):
    """Default budget (baseline + 4 schedules) on a workload that lives
    on the dropped row (lock epochs / GATS), every variant (all four
    run the ready sets): each run either deadlocks or still agrees with
    the healthy reference, and the mutant is killed."""
    ref = run_workload(workload, SERIES[0], None).digest.strict_sha
    deadlocks = 0
    with mutant():
        for series in SERIES:
            for spec in [None, *specs_for(4)]:
                try:
                    run = run_workload(workload, series, spec)
                except SimulationDeadlock:
                    deadlocks += 1
                else:
                    assert run.digest.strict_sha == ref
    assert deadlocks
    # restored on exit: the healthy engine is clean again
    assert run_workload(workload, _NEW_NB, None).digest.strict_sha == ref


@pytest.mark.parametrize("mutant", [gate_grant_uncounted, drain_wakeup_dropped],
                         ids=["gate-grant", "drain-done"])
@pytest.mark.parametrize("workload", ["lu", "ordering"])
def test_baseline_wakeup_mutant_is_killed_within_8_schedules(mutant, workload):
    """``python -m repro.explore run --variants mvapich --schedules 8`` on
    a GATS workload kills each baseline mutant as a deadlock, or at worst
    as a digest mismatch (exit 1); the healed engine passes the same
    sweep."""
    with mutant():
        try:
            killed = main(["run", "--variants", "mvapich", "--schedules", "8",
                           "--workloads", workload]) == 1
        except SimulationDeadlock:
            killed = True
    assert killed
    assert main(["run", "--variants", "mvapich", "--schedules", "8",
                 "--workloads", workload]) == 0
