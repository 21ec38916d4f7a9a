"""Hypothesis property tests for FlushRequest age-stamping (§VII-C).

The flush contract: a flush stamped with age ``A`` completes exactly
when every *qualifying* op (same epoch, matching target, ``age <= A``)
known at creation has completed — under **any** interleaving of
qualifying and non-qualifying completions.  Early completion would let
``MPI_WIN_FLUSH`` return while stamped transfers are still in flight;
counter underflow would mean double-counted completions and must raise
rather than pass silently.  For a local flush, an op that bears a
result is complete only once it is delivered (its result has landed).
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi.errors import RmaInternalError
from repro.rma.engine.nonblocking import NonblockingEngine
from repro.rma.epoch import Epoch, EpochKind
from repro.rma.ops import OpKind, RmaOp
from repro.rma.requests import FlushRequest
from repro.rma.state import WindowState
from repro.simtime import Simulator

_TARGETS = (1, 2, 3)


def _epoch() -> Epoch:
    return Epoch(EpochKind.LOCK_ALL, 0, 0, targets=_TARGETS)


def _op(ep: Epoch, age: int, target: int, fetch: bool = False) -> RmaOp:
    if fetch:
        op = RmaOp(OpKind.GET, 0, target, 0, 8, ep, age=age,
                   result_buf=np.zeros(8, dtype=np.uint8))
    else:
        op = RmaOp(OpKind.PUT, 0, target, 0, 8, ep, age=age)
    ep.record_op(op)
    return op


# One op = (age, target, bears a result).  Ages straddle any stamp the
# strategy picks.
_ops_strategy = st.lists(
    st.tuples(st.integers(min_value=1, max_value=12),
              st.sampled_from(_TARGETS),
              st.booleans()),
    min_size=0, max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(
    ops=_ops_strategy,
    stamp_age=st.integers(min_value=0, max_value=12),
    flush_target=st.sampled_from((None, *_TARGETS)),
    local=st.booleans(),
    order=st.randoms(use_true_random=False),
)
def test_completes_exactly_when_last_qualifying_op_does(
    ops, stamp_age, flush_target, local, order
):
    """Arbitrary younger/older/foreign-target interleavings of every op's
    local-completion and delivery events, fed through the engine's own
    completion callbacks: the flush never completes early, always
    completes at the end, and the counter never underflows."""
    sim = Simulator()
    ep = _epoch()
    rma_ops = [_op(ep, age, target, fetch) for age, target, fetch in ops]
    qualifying = [
        op for op in rma_ops
        if op.age <= stamp_age and (flush_target is None or op.target == flush_target)
    ]
    fr = FlushRequest(sim, ep, stamp_age=stamp_age, target=flush_target,
                      local=local, counter=len(qualifying))
    assert fr.done == (len(qualifying) == 0)
    win = SimpleNamespace(rank=0, group=SimpleNamespace(gid=0, checker=None))
    ws = WindowState(win, on_lock_grant=None)
    ws.flushes = [fr]
    engine = SimpleNamespace(sim=sim, profiler=None, causal=None,
                             _mark_if_due=lambda ws: None, poke=lambda: None)

    events = [(callback, op) for op in rma_ops
              for callback in (NonblockingEngine._op_local, NonblockingEngine._op_delivered)]
    order.shuffle(events)
    for callback, op in events:
        callback(engine, ws, op)
        pending = [
            q for q in qualifying
            if not (q.deliver_time is not None
                    or (local and q.local_time is not None and q.result_buf is None))
        ]
        # never early, never late, never negative:
        assert fr.done == (not pending)
        assert fr.counter == len(pending)
    assert fr.done
    assert fr.counter == 0


@settings(max_examples=100, deadline=None)
@given(
    ops=st.lists(st.integers(min_value=1, max_value=12), min_size=2, max_size=10),
    order=st.randoms(use_true_random=False),
)
def test_overstated_counter_never_completes_understated_never_raises(ops, order):
    """A counter larger than the qualifying set leaves the flush pending
    (missing completions, not a crash); a smaller one completes early
    and ignores the surplus — neither interleaving may underflow."""
    sim = Simulator()
    ep = _epoch()
    rma_ops = [_op(ep, age, 1) for age in ops]
    stamp = max(ops)
    shuffled = list(rma_ops)
    order.shuffle(shuffled)

    over = FlushRequest(sim, ep, stamp_age=stamp, target=None, local=False,
                        counter=len(rma_ops) + 1)
    under = FlushRequest(sim, ep, stamp_age=stamp, target=None, local=False,
                         counter=len(rma_ops) - 1)
    for op in shuffled:
        over.op_completed(op)
        under.op_completed(op)
    assert not over.done and over.counter == 1
    assert under.done and under.counter == 0


def test_true_underflow_raises_internal_error():
    """Double-counted completion (engine accounting bug) must raise, not
    silently complete: counter hits -1 while the request is pending."""
    sim = Simulator()
    ep = _epoch()
    a, b = _op(ep, 1, 1), _op(ep, 2, 1)
    fr = FlushRequest(sim, ep, stamp_age=5, target=None, local=False, counter=2)
    fr.op_completed(a)
    fr.counter = 0  # simulate the accounting bug: drained but not done
    with pytest.raises(RmaInternalError):
        fr.op_completed(b)
