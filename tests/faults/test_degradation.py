"""Adaptive-engine graceful degradation under retry pressure."""

import numpy as np

from repro.faults import FaultKind, FaultPlan, FaultRule, ReliabilityConfig
from repro.rma.engine.adaptive import DEGRADE_RETRY_THRESHOLD
from tests.conftest import make_runtime

#: Deep retry budget: with 50% drops, 24 attempts make exhaustion
#: essentially impossible (2^-24) while pressure still builds fast.
DEEP_RETRY = ReliabilityConfig(max_attempts=24)

MB = 1 << 20
WORK = 500.0


def overlap_epoch_app(repeats, work_us=WORK):
    """Origin repeats the overlap pattern (put + work + unlock) against
    a passive target — the workload that normally promotes to eager."""

    def origin(proc):
        win = yield from proc.win_allocate(2 * MB)
        yield from proc.barrier()
        for _ in range(repeats):
            yield from win.lock(1)
            win.put(np.zeros(MB, dtype=np.uint8), 1, 0)
            if work_us:
                yield from proc.compute(work_us)
            yield from win.unlock(1)
        yield from proc.barrier()
        return int(win.view()[0])

    def target(proc):
        _win = yield from proc.win_allocate(2 * MB)
        yield from proc.barrier()
        yield from proc.barrier()
        return 0

    return {0: origin, 1: target}


def heavy_loss_plan(seed=77):
    """Enough certain loss to push retransmissions over the threshold."""
    return FaultPlan(
        seed=seed,
        rules=(FaultRule(FaultKind.DROP, 0.5, stop_count=4 * DEGRADE_RETRY_THRESHOLD),),
        retry=DEEP_RETRY,
    )


class TestDegradation:
    def test_promotes_normally_without_faults(self):
        rt = make_runtime(2, "adaptive")
        rt.run_mixed(overlap_epoch_app(3))
        eng = rt.engines[0]
        assert eng.is_eager(0, 1)
        assert not eng.degraded

    def test_degrades_under_retry_pressure(self):
        rt = make_runtime(2, "adaptive", fault_plan=heavy_loss_plan())
        rt.run_mixed(overlap_epoch_app(10))
        eng = rt.engines[0]
        assert rt.fabric.reliability.retransmissions >= DEGRADE_RETRY_THRESHOLD
        assert eng.degraded
        # Degradation is a one-way fuse: no eager pairs survive it, and
        # overlappable epochs closed afterwards must not re-promote.
        assert not eng.is_eager(0, 1)
        assert rt.stats().degraded

    def test_demotion_recorded_in_mode_switches(self):
        rt = make_runtime(2, "adaptive", fault_plan=heavy_loss_plan())
        rt.run_mixed(overlap_epoch_app(10))
        switches = [kind for (_, _, _, kind) in rt.engines[0].mode_switches]
        # If the pair ever went eager, degradation must have pulled it back.
        if "eager" in switches:
            assert switches[-1] == "lazy"

    def test_light_faults_do_not_degrade(self):
        plan = FaultPlan(
            seed=5,
            rules=(FaultRule(FaultKind.DROP, 1.0, stop_count=1),),
        )
        rt = make_runtime(2, "adaptive", fault_plan=plan)
        rt.run_mixed(overlap_epoch_app(3))
        eng = rt.engines[0]
        assert not eng.degraded
        assert eng.is_eager(0, 1)

    def test_degraded_run_still_correct(self):
        clean = make_runtime(2, "adaptive").run_mixed(overlap_epoch_app(10))
        faulty = make_runtime(
            2, "adaptive", fault_plan=heavy_loss_plan()
        ).run_mixed(overlap_epoch_app(10))
        assert clean == faulty
