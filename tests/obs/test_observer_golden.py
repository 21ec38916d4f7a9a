"""Every observer's output is pinned byte for byte.

One canonical JSON document holds, per run: the final virtual time,
``metrics_summary()`` (minus the host-time ``wall_ms``), the causal
spans / waits / epoch records and the ``RuntimeStats`` fields.  The runs
are the 32 registry cells (every workload x every series, metrics +
causal on) and eleven transaction cells that
reach what the registry does not: retransmission, duplicates, delay
spikes, credit stalls, the baseline's grant scan, adaptive degradation
and a host-attention stall.

A change that *means* to move an observer output regenerates
``golden_observers.sha256`` and says why in CHANGES.md.  To find what
moved, dump the document on both sides and diff::

    PYTHONPATH=src python -m tests.obs.test_observer_golden > new.json
    (same command on the parent commit)                     > old.json
    diff old.json new.json
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import itertools
import json
from contextlib import contextmanager
from pathlib import Path
from types import MappingProxyType

from repro.apps.transactions import TransactionsConfig, run_transactions
from repro.faults import FaultPlan, RankFault
from repro.mpi import p2p
from repro.network import packets
from repro.network.model import NetworkModel
from repro.rma import epoch, ops
from repro.workloads import SERIES, WORKLOADS

GOLDEN = Path(__file__).with_name("golden_observers.sha256")

#: (label, engine, nonblocking) of the transaction cells.
_TXN_DRIVES = (
    ("nonblocking-i", "nonblocking", True),
    ("nonblocking-blocking", "nonblocking", False),
    ("mvapich", "mvapich", False),
    ("adaptive", "adaptive", False),
    ("signal", "signal", True),
)

_TXN_STRESS = (
    ("chaos", {"fault_plan": FaultPlan.light_chaos(7, drop=0.08, duplicate=0.03,
                                                   delay_rate=0.05)}),
    ("credits", {"model": NetworkModel(credits_per_peer=1,
                                       baseline_scan_cost_us=0.05)}),
)


#: The process-wide uid counters whose values reach the observers.
_UID_COUNTERS = (
    (epoch, "_epoch_uids"), (ops, "_op_uids"), (packets, "_msg_ids"), (p2p, "_send_ids"),
)


@contextmanager
def _fresh_uids():
    """Number this run's epochs, ops and messages from 0, as a
    fresh interpreter would, whatever ran before it in this process."""
    saved = [getattr(module, name) for module, name in _UID_COUNTERS]
    for module, name in _UID_COUNTERS:
        setattr(module, name, itertools.count())
    try:
        yield
    finally:
        for (module, name), counter in zip(_UID_COUNTERS, saved):
            setattr(module, name, counter)


def _key(k) -> str:
    if isinstance(k, enum.Enum):
        return k.name
    if isinstance(k, tuple):
        return ",".join(_key(x) for x in k)
    if isinstance(k, (str, int)):
        return str(k)
    raise TypeError(f"unsupported key {k!r} ({type(k).__name__})")


def _plain(x):
    """JSON primitives only: anything not converted here raises."""
    if isinstance(x, enum.Enum):
        return x.name
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    if isinstance(x, (dict, MappingProxyType)):
        return {_key(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    raise TypeError(f"unsupported value {x!r} ({type(x).__name__})")


def _observed(run) -> dict:
    """Everything the observers recorded about one run of ``run()``."""
    with _fresh_uids():
        rt = run()
    summary = rt.metrics_summary()
    for step in summary["profile"]["steps"].values():
        del step["wall_ms"]
    causal = rt.causal
    stats = rt.stats()
    return {
        "now": rt.now,
        "metrics": summary,
        "spans": [[s.sid, s.kind, s.rank, s.win, s.epoch, s.t0, s.t1, s.parent,
                   s.end_cause, s.meta] for s in causal.spans],
        "waits": causal.waits,
        "epochs": [[r.uid, r.kind, r.rank, r.win, r.sid, r.open_us, r.activate_us,
                    r.close_us, r.complete_us, r.ops] for r in causal.epochs],
        "stats": {f.name: getattr(stats, f.name) for f in dataclasses.fields(stats)},
    }


def _txn(engine: str, nonblocking: bool, **stress):
    return lambda: run_transactions(TransactionsConfig(
        nranks=4, txns_per_rank=10, slots_per_rank=8, cores_per_node=2,
        work_in_epoch_us=4.0, engine=engine, nonblocking=nonblocking,
        metrics=True, causal=True, **stress,
    )).runtime


def observer_document() -> str:
    doc = {}
    for name, workload in sorted(WORKLOADS.items()):
        for s in SERIES:
            doc[f"{name}/{s.name}"] = _observed(
                lambda: workload.instrumented(s.engine, s.nonblocking, True))
    for label, engine, nonblocking in _TXN_DRIVES:
        for stress, kwargs in _TXN_STRESS:
            doc[f"transactions-{stress}/{label}"] = _observed(
                _txn(engine, nonblocking, **kwargs))
    stall = FaultPlan(seed=3, ranks=(RankFault(1, stalls=((20.0, 40.0), (90.0, 30.0))),))
    doc["transactions-stall/mvapich"] = _observed(_txn("mvapich", False, fault_plan=stall))
    return json.dumps(_plain(doc), sort_keys=True, allow_nan=False)


def test_observer_document_is_byte_identical_to_the_golden():
    document = observer_document()
    assert hashlib.sha256(document.encode()).hexdigest() == GOLDEN.read_text().strip(), (
        f"an observer output moved ({len(document)} bytes); see this module's "
        f"docstring for how to find which"
    )


if __name__ == "__main__":
    print(observer_document())
