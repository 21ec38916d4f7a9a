"""The fixed-bucket histogram of the metrics summary."""

import pytest

from repro.apps.transactions import TransactionsConfig, run_transactions
from repro.obs.metrics import Histogram, quantile_from_snapshot
from repro.rma.engine.registry import ENGINES


class TestHistogram:
    def test_bucket_placement(self):
        h = Histogram("lat", bounds=(1, 10, 100))
        for v in (0.5, 1.0, 5, 50, 5000):
            h.observe(v)
        # bisect_left on inclusive upper bounds: 1.0 lands in bucket 0.
        assert h.counts == [2, 1, 1, 1]
        assert h.count == 5
        assert h.min == 0.5
        assert h.max == 5000

    def test_mean(self):
        h = Histogram("lat", bounds=(10,))
        h.observe(2)
        h.observe(4)
        assert h.mean == 3.0
        assert Histogram("empty").mean == 0.0

    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("bad", bounds=(5, 5))
        with pytest.raises(ValueError):
            Histogram("bad", bounds=(5, 1))

    def test_quantile_basic(self):
        h = Histogram("lat", bounds=(1, 10, 100))
        for v in (0.5, 2, 3, 20, 99):
            h.observe(v)
        assert h.quantile(0.0) == 1.0  # first non-empty bucket's bound
        assert h.quantile(1.0) == 99  # overflow-free max
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_quantile_clamped_to_observed_max(self):
        # One sample of 6.61 with a 10-bound bucket: the p99 estimate
        # must report 6.61, not the bucket's upper bound.
        h = Histogram("lat", bounds=(1, 10))
        h.observe(6.61)
        assert h.quantile(0.5) == pytest.approx(6.61)
        assert h.quantile(0.99) == pytest.approx(6.61)

    def test_quantile_empty(self):
        assert Histogram("empty").quantile(0.5) == 0.0

    def test_snapshot_roundtrip(self):
        h = Histogram("lat", bounds=(1, 10, 100))
        for v in (0.5, 2, 3, 20, 250):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 5
        assert snap["counts"] == h.counts
        for q in (0.1, 0.5, 0.9, 1.0):
            assert quantile_from_snapshot(snap, q) == h.quantile(q)
        assert quantile_from_snapshot(Histogram("e").snapshot(), 0.5) == 0.0

    def test_quantile_single_estimator_cross_check(self):
        """Live histogram and serialized snapshot must agree everywhere —
        the two code paths share one estimator, and these edges are
        where the historical copies could diverge."""
        edge_cases = {
            "empty": [],
            "single_bucket": [3.0, 4.0, 5.0],          # all inside bucket 0
            "overflow": [2.0, 50.0, 5000.0, 9000.0],   # beyond the last bound
            "mixed": [0.5, 2, 3, 20, 99, 250],
        }
        for name, samples in edge_cases.items():
            h = Histogram(name, bounds=(10, 100))
            for v in samples:
                h.observe(v)
            snap = h.snapshot()
            for q in (0.0, 0.25, 0.5, 0.99, 1.0):
                assert quantile_from_snapshot(snap, q) == h.quantile(q), (name, q)

    def test_quantile_snapshot_validates_range_like_live(self):
        """The snapshot path historically skipped the [0, 1] check."""
        h = Histogram("lat", bounds=(10,))
        h.observe(1.0)
        snap = h.snapshot()
        for bad in (-0.1, 1.5):
            with pytest.raises(ValueError):
                h.quantile(bad)
            with pytest.raises(ValueError):
                quantile_from_snapshot(snap, bad)



class TestFold:
    """The summary is folded from the span graph and the layers' own
    counts, so arming the recorder a second time changes nothing."""

    @staticmethod
    def _summary(engine, **obs):
        rt = run_transactions(TransactionsConfig(
            nranks=4, txns_per_rank=6, slots_per_rank=8, cores_per_node=2,
            work_in_epoch_us=4.0, engine=engine, nonblocking=engine in ("nonblocking", "signal"),
            metrics=True, **obs,
        )).runtime
        summary = rt.metrics_summary()
        for step in summary["profile"]["steps"].values():
            del step["wall_ms"]
        return rt, summary

    @pytest.mark.parametrize("engine", ENGINES)
    def test_metrics_alone_equals_metrics_with_causal(self, engine):
        rt, alone = self._summary(engine)
        _, both = self._summary(engine, causal=True)
        assert alone == both
        sends = {n: v for n, v in alone["counters"].items() if n.startswith("fabric.sends.")}
        assert sends and sum(sends.values()) == rt.stats().messages_sent
