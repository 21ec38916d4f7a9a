"""FlushRequest unit behaviour: age stamping, target filtering, epoch
scoping (§VII-C)."""

import pytest

from repro.rma.epoch import Epoch, EpochKind
from repro.rma.notify import SignalChannel
from repro.rma.ops import OpKind, RmaOp
from repro.rma.requests import FlushRequest
from tests.conftest import make_runtime


def make_epoch():
    return Epoch(EpochKind.LOCK, 0, 0, targets=(1,))


def make_op(ep, age, target=1):
    op = RmaOp(OpKind.PUT, 0, target, 0, 8, ep, age=age)
    ep.record_op(op)
    return op


class TestFlushRequestUnit:
    def test_zero_counter_completes_immediately(self, sim):
        fr = FlushRequest(sim, make_epoch(), stamp_age=5, target=None, local=False, counter=0)
        assert fr.done

    def test_counts_down_to_zero(self, sim):
        ep = make_epoch()
        ops = [make_op(ep, age) for age in (1, 2)]
        fr = FlushRequest(sim, ep, stamp_age=2, target=None, local=False, counter=2)
        fr.op_completed(ops[0])
        assert not fr.done
        fr.op_completed(ops[1])
        assert fr.done

    def test_younger_ops_do_not_count(self, sim):
        ep = make_epoch()
        old = make_op(ep, age=1)
        young = make_op(ep, age=9)
        fr = FlushRequest(sim, ep, stamp_age=5, target=None, local=False, counter=1)
        fr.op_completed(young)  # age 9 > stamp 5: ignored
        assert not fr.done
        fr.op_completed(old)
        assert fr.done

    def test_target_filter(self, sim):
        ep = Epoch(EpochKind.LOCK_ALL, 0, 0, targets=(1, 2))
        to_1 = make_op(ep, age=1, target=1)
        to_2 = make_op(ep, age=2, target=2)
        fr = FlushRequest(sim, ep, stamp_age=5, target=1, local=False, counter=1)
        fr.op_completed(to_2)  # wrong target
        assert not fr.done
        fr.op_completed(to_1)
        assert fr.done

    def test_other_epochs_ops_ignored(self, sim):
        ep_a, ep_b = make_epoch(), make_epoch()
        op_b = make_op(ep_b, age=1)
        fr = FlushRequest(sim, ep_a, stamp_age=5, target=None, local=False, counter=1)
        fr.op_completed(op_b)
        assert not fr.done

    def test_completion_idempotent(self, sim):
        ep = make_epoch()
        op = make_op(ep, age=1)
        fr = FlushRequest(sim, ep, stamp_age=1, target=None, local=False, counter=1)
        fr.op_completed(op)
        fr.op_completed(op)  # no double-complete crash
        assert fr.done

    def test_counter_underflow_raises(self, sim):
        """Regression: a double-counted completion used to drive the
        counter negative silently, leaving the request stuck forever.
        Underflow is unreachable through the normal flow (zero completes
        the request, and done requests ignore further notifications), so
        reproduce the inconsistent engine state directly."""
        from repro.mpi.errors import RmaInternalError

        ep = make_epoch()
        op = make_op(ep, age=1)
        fr = FlushRequest(sim, ep, stamp_age=1, target=None, local=False, counter=2)
        fr.counter = 0  # accounting bug: counter drained without completion
        with pytest.raises(RmaInternalError) as exc:
            fr.op_completed(op)
        assert "underflow" in str(exc.value)
        assert not fr.done  # the bug is surfaced, not papered over

    def test_underflow_error_is_not_a_usage_error(self):
        """RmaInternalError indicts the middleware, not the application,
        and is raised regardless of any error-handler setting."""
        from repro.mpi.errors import MpiError, RmaInternalError, RmaUsageError

        assert issubclass(RmaInternalError, MpiError)
        assert not issubclass(RmaInternalError, RmaUsageError)


class TestWindowStateUnits:
    def test_age_counter_monotonic(self):
        rt = make_runtime(2)

        def app(proc):
            _win = yield from proc.win_allocate(64)
            yield from proc.barrier()
            ws = proc.runtime.engines[proc.rank].states[0]
            ages = [ws.next_age() for _ in range(5)]
            assert ages == [1, 2, 3, 4, 5]
            yield from proc.barrier()

        rt.run(app)

    def test_access_ids_per_target_independent(self):
        rt = make_runtime(3)

        def app(proc):
            _win = yield from proc.win_allocate(64)
            yield from proc.barrier()
            board = proc.runtime.engines[proc.rank].states[0].board
            assert board.bump_expected(SignalChannel.GRANT, 1) == 1
            assert board.bump_expected(SignalChannel.GRANT, 2) == 1
            assert board.bump_expected(SignalChannel.GRANT, 1) == 2
            assert board.reached(SignalChannel.GRANT, 1, 0)
            assert not board.reached(SignalChannel.GRANT, 1, 1)  # nothing granted yet
            yield from proc.barrier()

        rt.run(app)
