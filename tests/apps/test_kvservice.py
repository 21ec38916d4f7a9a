"""Sharded KV service: exactness across engines and drives (each engine
runs its own persistent-collective epoch style)."""

import numpy as np
import pytest

from repro.apps import KvServiceConfig, reference_kvservice, run_kvservice
from repro.rma.window import Window

MODES = [
    dict(engine="mvapich"),
    dict(engine="nonblocking"),
    dict(engine="nonblocking", nonblocking=True),
    dict(engine="signal", nonblocking=True),
]
IDS = ["mvapich", "new-blocking", "new-nonblocking", "signal"]


def cfg(**kw):
    base = dict(nranks=3, keys_per_shard=8, requests_per_rank=36,
                rebalance_every=12, cores_per_node=2)
    base.update(kw)
    return KvServiceConfig(**base)


class TestExactness:
    @pytest.mark.parametrize("mode", MODES, ids=IDS)
    def test_tables_match_reference(self, mode):
        c = cfg(**mode)
        res = run_kvservice(c)
        assert res.tables == reference_kvservice(c)

    def test_modes_agree_with_each_other(self):
        outs = [run_kvservice(cfg(**mode)) for mode in MODES]
        assert len({o.tables for o in outs}) == 1
        assert len({o.stats for o in outs}) == 1


class TestStats:
    def test_stats_account_for_every_request(self):
        c = cfg(clients_per_request=5)
        res = run_kvservice(c)
        gets, adds, clients, occupancy = res.stats
        assert gets + adds == c.nranks * c.requests_per_rank
        assert clients == adds * 5
        assert occupancy == sum(
            sum(1 for v in t if v) for t in res.tables)

    def test_rebalance_rounds(self):
        res = run_kvservice(cfg(requests_per_rank=30, rebalance_every=12))
        assert res.rebalances == 3  # ceil(30 / 12)

    def test_rotation_moves_tables(self):
        """Same request stream, different rebalance cadence: the final
        tables differ only by the extra rotations (3 rounds on 3 ranks
        is a full cycle; 1 round shifts every shard by one rank)."""
        a = run_kvservice(cfg(requests_per_rank=36, rebalance_every=12))
        b = run_kvservice(cfg(requests_per_rank=36, rebalance_every=36))
        assert a.rebalances == 3 and b.rebalances == 1
        assert b.tables == tuple(a.tables[(r - 1) % 3] for r in range(3))


class TestTelemetry:
    def test_latency_and_elapsed_populated(self):
        res = run_kvservice(cfg())
        assert res.elapsed_us > 0
        assert res.latency_p99_us >= res.latency_mean_us > 0

    def test_open_loop_backpressure_shows_in_latency(self):
        """Halving the arrival period cannot reduce observed latency —
        the open loop turns contention into queueing delay."""
        slow = run_kvservice(cfg(arrival_period_us=8.0))
        fast = run_kvservice(cfg(arrival_period_us=0.5))
        assert fast.latency_mean_us >= slow.latency_mean_us

    def test_runtime_kept_only_when_asked(self):
        assert run_kvservice(cfg()).runtime is None
        assert run_kvservice(cfg(metrics=True)).runtime is not None


class TestLatencySampling:
    """Latency ends when the flush completed, not when ``retire()`` got
    around to waiting for it (37.1 / 92.0 us mean / p99 against 0.5 / 2.5
    blocking at identical elapsed time, before ``completed_at``)."""

    @pytest.mark.parametrize("engine", ["nonblocking", "signal"])
    def test_istar_drive_reports_what_the_blocking_drive_reports(self, engine):
        blocking = run_kvservice(cfg(engine=engine))
        istar = run_kvservice(cfg(engine=engine, nonblocking=True))
        assert 0 < istar.latency_mean_us <= 2 * blocking.latency_mean_us
        assert istar.latency_p99_us <= 2 * blocking.latency_p99_us

    def test_every_sample_is_completion_minus_arrival(self, monkeypatch):
        # All ADDs, so every sample comes from an iflush; the first one is
        # issued at t0 and arrivals are open-loop (t0 + k * period), so
        # the samples can be rebuilt from the requests alone.
        issued: dict[int, list] = {}
        real = Window.iflush

        def spy(win, target):
            req = real(win, target)
            if win.group.name == "kv.store":
                issued.setdefault(win.rank, []).append((req.sim.now, req))
            return req

        monkeypatch.setattr(Window, "iflush", spy)
        c = cfg(engine="nonblocking", nonblocking=True, get_fraction=0.0)
        res = run_kvservice(c)
        expected = [
            req.completed_at - (calls[0][0] + k * c.arrival_period_us)
            for calls in issued.values()
            for k, (_, req) in enumerate(calls)
        ]
        assert len(expected) == c.nranks * c.requests_per_rank
        assert res.latency_mean_us == pytest.approx(np.mean(expected))
        assert res.latency_p99_us == pytest.approx(np.percentile(expected, 99))
