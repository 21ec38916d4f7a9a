"""Pattern-detector edge cases and taxonomy completeness."""


from repro.obs.causal import CausalRecorder
from repro.patterns.detect import PATTERNS, detect_patterns
from repro.simtime import Simulator


def make_recorder():
    return CausalRecorder(Simulator())


class TestTaxonomy:
    def test_seven_patterns(self):
        assert len(PATTERNS) == 7
        assert "late_unlock" in PATTERNS  # the paper's new pattern

    def test_early_transfer_never_detected(self):
        """Early Transfer is structurally impossible here (communication
        calls are nonblocking per MPI-3) — the detector can never emit
        it, matching §III."""
        from tests.conftest import make_runtime

        import numpy as np

        rt = make_runtime(2, causal=True)

        def app(proc):
            win = yield from proc.win_allocate(2 << 20)
            yield from proc.barrier()
            if proc.rank == 0:
                yield from win.start([1])
                win.put(np.zeros(1 << 20, dtype=np.uint8), 1, 0)
                yield from win.complete()
            else:
                yield from proc.compute(500.0)
                yield from win.post([0])
                yield from win.wait_epoch()

        rt.run(app)
        inst = detect_patterns(rt.causal)
        assert not any(i.pattern == "early_transfer" for i in inst)


class TestBlockPairing:
    def test_unmatched_enter_ignored(self):
        rec = make_recorder()
        rec.begin("block", 0, 0, meta={"call": "complete"})
        # never ended (rank still blocked when the run stopped)
        assert detect_patterns(rec) == []

    def test_exit_without_enter_ignored(self):
        # Arrivals with no block around them classify nothing.
        rec = make_recorder()
        rec.instant("grant", 0, 0, meta={"granter": 1})
        rec.instant("op", 0, 0)
        assert detect_patterns(rec) == []

    def test_min_duration_filters_slivers(self):
        rec = make_recorder()
        rec.instant("block", 0, 0, meta={"call": "wait"})
        # Zero-duration block: below any positive min_duration.
        assert detect_patterns(rec, min_duration=1.0) == []

    def test_instances_sorted_by_time(self):
        from tests.conftest import make_runtime

        import numpy as np

        rt = make_runtime(2, causal=True)

        def origin(proc):
            win = yield from proc.win_allocate(64)
            yield from proc.barrier()
            for _ in range(2):
                yield from win.start([1])
                win.put(np.int64([1]), 1, 0)
                yield from proc.compute(300.0)
                yield from win.complete()

        def target(proc):
            win = yield from proc.win_allocate(64)
            yield from proc.barrier()
            for _ in range(2):
                yield from win.post([0])
                yield from win.wait_epoch()

        rt.run_mixed({0: origin, 1: target})
        inst = detect_patterns(rt.causal)
        starts = [i.start for i in inst]
        assert starts == sorted(starts)
        assert sum(1 for i in inst if i.pattern == "late_complete") == 2
