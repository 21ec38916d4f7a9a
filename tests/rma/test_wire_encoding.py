"""The engines differ only in the wire.

Every engine is a ``NonblockingEngine`` (``engine/nonblocking.py``) and
runs its one matching protocol over the same counter board; an engine is its *wire encoding* (``_transmit``, the
receive handlers) plus two numbering rules.  So the stream of
``_notify`` calls — which counter advanced toward whom, to what value —
is a property of the program, not of the engine: recorded per rank as a
multiset it must be equal on all four series, once the one stated
difference (``lock_channel``: ω folds lock grants into GRANT, §VII-B)
is read away.

``coll`` and ``kvservice`` are excluded: ``repro.coll`` synchronises
differently (credit signals instead of epochs) when the engine offers
notified access, so there the *program* differs, not the encoding.

The test is blind to ``done_by_id`` on these six workloads (no epoch's
done overtakes an earlier one's toward the same target, so the id and
the count coincide); ``tests/explore/test_golden.py`` is not — flipping
``SignalEngine.done_by_id`` moves the explore document.
"""

from __future__ import annotations

from collections import Counter
from functools import cache

import pytest

from repro.explore import ExplorationContext
from repro.rma.engine.nonblocking import NonblockingEngine
from repro.rma.notify import SignalChannel
from repro.workloads import SERIES, get_workload

WIRE_BLIND = ("halo", "stencil2d", "lu", "transactions", "factdb", "ordering")
#: The workloads with passive-target epochs: where the fold shows.
LOCKING = {"transactions", "factdb", "ordering"}
OMEGA = [s for s in SERIES if s.engine != "signal"]
SIGNAL = next(s for s in SERIES if s.engine == "signal")


@cache
def _stream(workload: str, series) -> dict[int, Counter]:
    """rank -> multiset of (window, channel, peer, value) notified."""
    record: dict[int, Counter] = {}
    real = NonblockingEngine._notify

    def recording(self, ws, channel, peer, value=None, **wire):
        sent = real(self, ws, channel, peer, value, **wire)
        record.setdefault(self.rank, Counter())[ws.gid, channel, peer, sent] += 1
        return sent

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(NonblockingEngine, "_notify", recording)
        get_workload(workload).oracle(series.engine, series.nonblocking,
                                      ExplorationContext())
    assert record, "the workload notified nothing"
    return record


def _folded(stream: dict[int, Counter]) -> dict[int, Counter]:
    """The same stream with LOCK read as GRANT."""
    grant, lock = SignalChannel.GRANT, SignalChannel.LOCK
    return {
        rank: Counter({
            (gid, grant if ch is lock else ch, peer, value): n
            for (gid, ch, peer, value), n in sent.items()
        })
        for rank, sent in stream.items()
    }


@pytest.mark.parametrize("workload", WIRE_BLIND)
def test_notify_stream_is_engine_independent(workload):
    reference = _folded(_stream(workload, SERIES[0]))
    for series in SERIES[1:]:
        assert _folded(_stream(workload, series)) == reference, series.name


@pytest.mark.parametrize("workload", WIRE_BLIND)
def test_the_fold_is_the_only_difference(workload):
    """Unfolded, the three ω series still agree with each other, and the
    signal engine differs from them exactly where locks are taken."""
    reference = _stream(workload, OMEGA[0])
    for series in OMEGA[1:]:
        assert _stream(workload, series) == reference, series.name
    assert (_stream(workload, SIGNAL) != reference) == (workload in LOCKING)
