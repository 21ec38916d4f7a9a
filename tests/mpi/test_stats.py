"""Runtime statistics collection."""

import numpy as np
import pytest

from repro.mpi.stats import RuntimeStats, collect_stats
from repro.rma.notify import SignalChannel
from repro.rma.packets import SignalUpdate
from tests.conftest import make_runtime


def run_small_job(engine="nonblocking", **kwargs):
    rt = make_runtime(3, engine, **kwargs)

    def app(proc):
        win = yield from proc.win_allocate(1 << 20)
        yield from proc.barrier()
        if proc.rank == 0:
            yield from win.lock(1)
            win.put(np.zeros(1 << 19, dtype=np.uint8), 1, 0)
            yield from win.unlock(1)
        yield from proc.barrier()

    rt.run(app)
    return rt


class TestCollect:
    def test_counts_plausible(self):
        stats = run_small_job().stats()
        assert stats.virtual_time_us > 0
        assert stats.messages_sent > 0
        assert stats.bytes_sent >= 1 << 19
        assert stats.windows == 1
        assert stats.lock_grants == 1
        assert stats.live_epochs == 0  # clean completion

    def test_hit_rate_bounds(self):
        stats = run_small_job().stats()
        assert 0.0 <= stats.regcache_hit_rate <= 1.0

    def test_hit_rate_zero_when_unused(self):
        s = RuntimeStats(0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
        assert s.regcache_hit_rate == 0.0

    def test_format_mentions_key_fields(self):
        """The snapshot's fields are its format: no text rendering."""
        stats = run_small_job().stats()
        assert stats.regcache_hits + stats.regcache_misses > 0
        assert (stats.fc_stalls, stats.fc_max_queued, dict(stats.fc_pair_stalls)) == (0, 0, {})
        assert not hasattr(stats, "format")

    def test_both_engines(self, engine):
        stats = run_small_job(engine).stats()
        assert stats.lock_grants == 1

    def test_collect_stats_function(self):
        rt = run_small_job()
        assert collect_stats(rt).messages_sent == rt.fabric.messages_sent

    def test_replayed_signal_update_is_counted(self):
        """``dup_grants_ignored`` sees the signal engine too: a replayed
        ``SignalUpdate`` is discarded by the same idempotent max() on the
        same board a replayed ω ``GrantUpdate`` is."""
        rt = run_small_job("signal", metrics=True)
        assert rt.stats().dup_grants_ignored == 0
        engine = rt.engines[0]
        ws = engine.states[0]
        held = ws.board.inbound[SignalChannel.LOCK, 1]
        assert held == 1  # the one lock grant of the job
        engine._on_signal(
            ws, SignalUpdate(ws.gid, channel=int(SignalChannel.LOCK), signaler=1, value=held), 1
        )
        assert rt.stats().dup_grants_ignored == 1
        assert rt.metrics_summary()["counters"]["signal.dup_ignored"] == 1


class TestFrozenSnapshot:
    """RuntimeStats is a frozen dataclass; its dict fields must be
    frozen too — deep-copied at collect time and read-only after."""

    def test_dict_fields_reject_mutation(self):
        stats = run_small_job().stats()
        with pytest.raises(TypeError):
            stats.faults_injected["drops"] = 99
        with pytest.raises(TypeError):
            stats.fc_pair_stalls[(0, 1)] = (1, 1)

    def test_faults_snapshot_decoupled_from_injector(self):
        from repro.faults import FaultKind, FaultPlan, FaultRule

        plan = FaultPlan(seed=3, rules=(FaultRule(FaultKind.DELAY, 0.5, delay_us=5.0),))
        rt = make_runtime(3, fault_plan=plan)

        def app(proc):
            win = yield from proc.win_allocate(1 << 16)
            yield from proc.barrier()
            if proc.rank == 0:
                yield from win.lock(1)
                win.put(np.zeros(1 << 10, dtype=np.uint8), 1, 0)
                yield from win.unlock(1)
            yield from proc.barrier()

        rt.run(app)
        stats = rt.stats()
        before = dict(stats.faults_injected)
        # Later injector activity must not leak into the snapshot.
        rt.fabric.injector.counters["delays"] += 100
        assert dict(stats.faults_injected) == before

    def test_metrics_field_none_by_default(self):
        """Without ``metrics=True`` the runtime folds no summary."""
        rt = run_small_job()
        assert not rt.metrics and rt.metrics_summary() is None

    def test_metrics_field_carries_summary(self):
        """With ``metrics=True`` the summary is ``rt.metrics_summary()``."""
        rt = make_runtime(2, metrics=True)

        def app(proc):
            win = yield from proc.win_allocate(256)
            yield from proc.barrier()
            yield from win.fence()
            if proc.rank == 0:
                win.put(np.zeros(8, dtype=np.uint8), 1, 0)
            yield from win.fence()
            yield from proc.barrier()

        rt.run(app)
        summary = rt.metrics_summary()
        assert summary["counters"]["rma.ops_issued"] == 1
        assert summary["profile"]["sweeps"] > 0


def test_removed_names_stay_removed():
    """The chaos driver and the snapshot's second summary are gone: the
    explorer's digest checks fault plans, ``metrics_summary()`` is the
    one summary."""
    import dataclasses

    import repro
    import repro.faults

    for name in ("chaos_sweep", "ChaosOutcome", "default_schedule", "results_equal"):
        assert not hasattr(repro, name) and not hasattr(repro.faults, name), name
        assert name not in repro.__all__ and name not in repro.faults.__all__, name
    fields = {f.name for f in dataclasses.fields(RuntimeStats)}
    assert "metrics" not in fields
    assert not hasattr(RuntimeStats, "format")
    assert not hasattr(RuntimeStats, "total_faults")


class TestCliRunner:
    def test_main_rejects_unknown_figure(self):
        from repro.bench.__main__ import main

        assert main(["nope"]) == 2

    def test_main_runs_one_figure(self, capsys):
        from repro.bench.__main__ import main

        assert main(["fig08"]) == 0
        out = capsys.readouterr().out
        assert "A_A_A_R" in out

    def test_registry_contains_the_ten_figures_plus_extras(self):
        from repro.bench import FIGURES

        expected = sorted(
            [f"fig{n:02d}" for n in range(2, 12)]
            + ["protocol_cost", "coll_overlap", "fig12_collapse"]
            + ["fig12_txn", "fig12_credits", "fig13a", "fig13b", "fig13c", "fig13d",
               "latency_epoch", "latency_overlap", "abl_eager_issue",
               "abl_issue_in_epoch", "abl_regcache", "abl_flow_control",
               "abl_netspeed_lc", "abl_netspeed_lu", "ext_adaptive", "ext_factdb"]
        )
        assert sorted(FIGURES) == expected
        assert all(fig.name == name and callable(fig.build)
                   for name, fig in FIGURES.items())
