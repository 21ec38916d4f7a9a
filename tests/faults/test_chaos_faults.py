"""Acceptance tests: the Fig. 12 transactions workload under seeded
chaos (drops <= 2%, duplicates, delay spikes) must complete on all three
test series with byte-identical results vs the fault-free run, with the
semantics checker in raise mode, and reproduce identical fault/retry
counters run over run."""

import pytest

from repro.apps import TransactionsConfig, run_transactions
from repro.faults import FaultKind, FaultPlan, FaultRule

NRANKS = 6
TXNS = 12

#: The acceptance mix: <=2% drops, duplicates, delay spikes.
ACCEPTANCE_PLAN = FaultPlan.light_chaos(
    seed=2014, drop=0.02, duplicate=0.01, delay_rate=0.02, delay_us=30.0
)

SERIES = (
    ("mvapich", dict(engine="mvapich")),
    ("new", dict(engine="nonblocking")),
    ("new_nonblocking", dict(engine="nonblocking", nonblocking=True)),
)


def run_series(kw, plan, seed=2014):
    cfg = TransactionsConfig(
        nranks=NRANKS,
        txns_per_rank=TXNS,
        seed=seed,
        fault_plan=plan,
        semantics_check="raise",
        **kw,
    )
    return run_transactions(cfg)


@pytest.mark.parametrize("name,kw", SERIES, ids=[s[0] for s in SERIES])
class TestAcceptance:
    def test_byte_identical_under_acceptance_plan(self, name, kw):
        clean = run_series(kw, None)
        faulty = run_series(kw, ACCEPTANCE_PLAN)
        assert faulty.rank_sums == clean.rank_sums
        assert faulty.applied == faulty.total_txns == clean.applied
        # The plan must actually have perturbed the run to mean anything.
        assert sum(faulty.faults_injected.values()) > 0

    def test_identical_counters_across_two_runs(self, name, kw):
        a = run_series(kw, ACCEPTANCE_PLAN)
        b = run_series(kw, ACCEPTANCE_PLAN)
        assert a.faults_injected == b.faults_injected
        assert a.retransmissions == b.retransmissions
        assert a.dup_suppressed == b.dup_suppressed
        assert a.elapsed_us == b.elapsed_us
        assert a.rank_sums == b.rank_sums


class TestEscalatedChaos:
    def test_reorder_series_survives_acceptance_plan(self):
        # The contention-avoidance configuration (out-of-order epochs)
        # exercises different protocol paths; it must survive too.
        kw = dict(engine="nonblocking", nonblocking=True, reorder=True)
        clean = run_series(kw, None)
        faulty = run_series(kw, ACCEPTANCE_PLAN)
        assert faulty.rank_sums == clean.rank_sums

    def test_heavier_chaos_still_correct(self):
        plan = FaultPlan.light_chaos(
            seed=99, drop=0.05, duplicate=0.02, corrupt=0.02,
            delay_rate=0.05, delay_us=50.0,
        )
        kw = dict(engine="nonblocking", nonblocking=True)
        clean = run_series(kw, None)
        faulty = run_series(kw, plan)
        assert faulty.rank_sums == clean.rank_sums
        assert faulty.retransmissions > 0

    def test_targeted_grant_drops_are_repaired(self):
        # GrantUpdates are the packets whose loss wedges epochs; drop a
        # burst of RDMA traffic early and let the retry protocol repair it.
        from repro.network.packets import ServiceKind

        plan = FaultPlan(
            seed=31,
            rules=(
                FaultRule(FaultKind.DROP, 0.5, service=ServiceKind.RDMA,
                          stop_count=20),
            ),
        )
        kw = dict(engine="mvapich")
        clean = run_series(kw, None)
        faulty = run_series(kw, plan)
        assert faulty.rank_sums == clean.rank_sums
        assert faulty.faults_injected["drops"] > 0
