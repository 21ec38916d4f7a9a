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
        text = run_small_job().stats().format()
        for needle in ("virtual time", "messages sent", "lock grants", "regcache"):
            assert needle in text

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
        assert run_small_job().stats().metrics is None

    def test_metrics_field_carries_summary(self):
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
        stats = rt.stats()
        assert stats.metrics is not None
        assert stats.metrics["counters"]["rma.ops_issued"] == 1
        assert stats.metrics["profile"]["sweeps"] > 0
        assert "obs metrics" in stats.format()


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
