"""The ``exploration`` pytest fixture (wired via tests/conftest.py)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.explore import ExplorationContext, build_digest
from repro.explore.pytest_plugin import exploration_params


def test_fixture_default_is_baseline(exploration):
    assert isinstance(exploration, ExplorationContext)
    assert exploration.policy is None


@pytest.mark.parametrize("exploration", exploration_params(2, base_seed=0xF17),
                         indirect=True)
def test_fixture_threads_into_any_runtime(exploration):
    """An ordinary repo test opts into exploration by passing the fixture
    to a config / runtime; notifications and digests then just work."""
    from repro.apps.transactions import TransactionsConfig, run_transactions

    cfg = TransactionsConfig(nranks=2, txns_per_rank=4, slots_per_rank=8,
                             nonblocking=True, exploration=exploration)
    res = run_transactions(cfg)
    assert res.applied == res.total_txns
    assert exploration.runtimes, "runtime registered itself on the context"
    assert exploration.notifications, "engines logged delivered notifications"
    digest = build_digest(exploration, {"applied": res.applied})
    assert digest.strict["checker"]["violations"] == 0
    if exploration.policy is not None:
        assert exploration.policy.events_seen > 0
        assert exploration.sched_counters()["explore.events_perturbed"] > 0


def test_exploration_counters_surface_in_obs_metrics(exploration):
    """metrics_summary() folds explore.* counters in next to faults.*."""
    from repro.explore import ExplorationContext, PerturbationSpec
    from repro.apps.halo import HaloConfig, run_halo

    ctx = ExplorationContext.from_spec(PerturbationSpec(seed=3))
    cfg = HaloConfig(nranks=2, cells_per_rank=4, iterations=2, metrics=True,
                     exploration=ctx)
    res = run_halo(cfg)
    summary = res.runtime.metrics_summary()
    assert summary["counters"]["explore.events_seen"] > 0
    assert summary["counters"]["explore.events_perturbed"] > 0
    ref = np.sin(np.linspace(0, 2 * np.pi, 8, endpoint=False))
    from repro.apps.halo import reference_halo

    np.testing.assert_allclose(res.field, reference_halo(ref, 2, 4, 2), atol=1e-12)
