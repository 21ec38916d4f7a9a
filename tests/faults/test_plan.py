"""FaultPlan / FaultRule / fault_hash semantics."""

import math

import pytest

from repro.faults import FaultKind, FaultPlan, FaultRule, RankFault, fault_hash
from repro.network.packets import ServiceKind


class TestFaultHash:
    def test_deterministic(self):
        assert fault_hash(1, 2, 3, 4) == fault_hash(1, 2, 3, 4)

    def test_uniform_range(self):
        draws = [fault_hash(7, i, 0, 0) for i in range(2000)]
        assert all(0.0 <= d < 1.0 for d in draws)
        # Crude uniformity: the mean of 2000 U(0,1) draws is ~0.5.
        assert abs(sum(draws) / len(draws) - 0.5) < 0.05

    def test_coordinate_sensitivity(self):
        base = fault_hash(0, 0, 0, 0)
        assert base != fault_hash(1, 0, 0, 0)
        assert base != fault_hash(0, 1, 0, 0)
        assert base != fault_hash(0, 0, 1, 0)
        assert base != fault_hash(0, 0, 0, 1)

    def test_order_sensitivity(self):
        assert fault_hash(1, 2) != fault_hash(2, 1)

    def test_negative_coordinates_ok(self):
        # Acks draw with uid coordinate -1; must stay in range.
        assert 0.0 <= fault_hash(5, 0, -1, 3) < 1.0


class TestFaultRule:
    def test_rate_validation(self):
        with pytest.raises(ValueError, match="rate"):
            FaultRule(FaultKind.DROP, rate=1.5)
        with pytest.raises(ValueError, match="rate"):
            FaultRule(FaultKind.DROP, rate=-0.1)

    def test_delay_needs_positive_delay(self):
        with pytest.raises(ValueError, match="delay_us"):
            FaultRule(FaultKind.DELAY, rate=0.5)

    def test_time_window_validation(self):
        with pytest.raises(ValueError, match="start_us"):
            FaultRule(FaultKind.DROP, rate=0.1, start_us=10.0, stop_us=5.0)

    def test_count_window_validation(self):
        with pytest.raises(ValueError, match="start_count"):
            FaultRule(FaultKind.DROP, rate=0.1, start_count=5, stop_count=2)

    def test_matches_filters(self):
        rule = FaultRule(FaultKind.DROP, rate=1.0, src=1, dst=2,
                         service=ServiceKind.RDMA, start_us=10.0, stop_us=20.0)
        assert rule.matches(1, 2, ServiceKind.RDMA, 15.0)
        assert not rule.matches(0, 2, ServiceKind.RDMA, 15.0)
        assert not rule.matches(1, 3, ServiceKind.RDMA, 15.0)
        assert not rule.matches(1, 2, ServiceKind.CONTROL, 15.0)
        assert not rule.matches(1, 2, ServiceKind.RDMA, 9.9)
        assert not rule.matches(1, 2, ServiceKind.RDMA, 20.0)

    def test_wildcards_match_everything(self):
        rule = FaultRule(FaultKind.DROP, rate=1.0)
        assert rule.matches(0, 1, ServiceKind.RDMA, 0.0)
        assert rule.matches(9, 3, ServiceKind.CONTROL, 1e9)

    def test_fires_count_window(self):
        rule = FaultRule(FaultKind.DROP, rate=1.0, start_count=2, stop_count=4)
        assert [rule.fires(i) for i in range(6)] == [
            False, False, True, True, False, False
        ]

    def test_fires_unbounded(self):
        rule = FaultRule(FaultKind.DROP, rate=1.0)
        assert rule.fires(0) and rule.fires(10**9)


class TestRankFault:
    def test_validation(self):
        with pytest.raises(ValueError, match="rank"):
            RankFault(rank=-1)
        with pytest.raises(ValueError, match="slow_extra_us"):
            RankFault(rank=0, slow_extra_us=-1.0)


class TestFaultPlan:
    def test_light_chaos_composition(self):
        plan = FaultPlan.light_chaos(seed=3)
        kinds = {r.kind for r in plan.rules}
        assert kinds == {FaultKind.DROP, FaultKind.DUPLICATE, FaultKind.DELAY}
        assert plan.seed == 3

    def test_light_chaos_disable_channels(self):
        plan = FaultPlan.light_chaos(seed=3, drop=0.0, duplicate=0.0, delay_rate=0.5)
        assert {r.kind for r in plan.rules} == {FaultKind.DELAY}

    def test_describe_mentions_every_channel(self):
        plan = FaultPlan.light_chaos(
            seed=11, ranks=(RankFault(rank=2, fail_at_us=100.0),)
        )
        text = plan.describe()
        assert "seed=11" in text
        assert "drop" in text and "duplicate" in text and "delay" in text
        assert "rank2:fail" in text

    def test_plan_is_immutable(self):
        plan = FaultPlan.light_chaos(seed=1)
        with pytest.raises(AttributeError):
            plan.seed = 2

    def test_default_rule_windows_are_open(self):
        rule = FaultRule(FaultKind.DROP, 0.5)
        assert rule.start_us == 0.0 and rule.stop_us == math.inf
        assert rule.start_count == 0 and rule.stop_count is None
