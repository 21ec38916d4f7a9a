"""Row builders for the application-level evaluation tables (§VIII-B):
Fig. 12 (massive unstructured atomic transactions) and its
credit-starvation mechanism, Fig. 13 (LU decomposition), the
flow-control and network-speed ablations that run the same two kernels,
and the §X fact-database extension.

Job sizes are simulation-scale.  Fig. 12 sweeps 4–32 ranks over the
paper's three series plus "+ A_A_A_R" (:data:`MODES`); the paper's
≥512-process collapse was an acknowledged implementation-level
InfiniBand flow-control issue, and :func:`credit_rows` isolates its
mechanism — per-peer credits exhausted by many simultaneously pending
epochs.  Fig. 13 factors 128² / 256² matrices instead of 8k² / 16k², so
the fabric bandwidth is scaled down with them (:data:`LU_MODEL`, 20×) and
the compute / communication crossover — the U-shaped optimum job size —
falls inside the swept range as it does in the paper; the communication
structure (cyclic mapping, GATS pivot-row broadcast to n-1 peers) is the
paper's kernel.  Every cell is checked against the workload's own
correctness gate where it is built.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from ..apps import (
    FactDbConfig,
    LUConfig,
    TransactionsConfig,
    run_factdb,
    run_lu,
    run_transactions,
)
from ..apps.factdb import reference_table
from ..network.model import NetworkModel
from ..workloads import SERIES
from .calibration import BANDWIDTHS

__all__ = [
    "MODES",
    "TXN_RANKS",
    "LU_RANKS",
    "FACTDB_RANKS",
    "LU_MODEL",
    "fig12_txn_rows",
    "credit_rows",
    "flow_control_rows",
    "lu_panel",
    "netspeed_lu_rows",
    "factdb_rows",
]

Rows = dict[str, dict[str, float]]

#: Fig. 12's four series: the paper's three plus the §VI-B reorder flag.
MODES = (
    *((s.label, dict(engine=s.engine, nonblocking=s.nonblocking)) for s in SERIES[:3]),
    ("New nonblocking + A_A_A_R", dict(engine="nonblocking", nonblocking=True, reorder=True)),
)

TXN_RANKS = (4, 8, 16, 32)
LU_RANKS = (2, 4, 8, 16, 32)
FACTDB_RANKS = (4, 8, 16)

#: Fig. 13's fabric: bandwidth co-scaled with the matrix size.
LU_MODEL = NetworkModel().with_overrides(internode_bw=155.0, intranode_bw=300.0)


def _txn(**config) -> dict[str, float]:
    res = run_transactions(TransactionsConfig(**config))
    if res.applied != res.total_txns:
        raise AssertionError(f"{res.applied} of {res.total_txns} transactions applied")
    return {"ktxn/s": res.throughput_txn_per_s / 1e3, "stalls": float(res.fc_stalls)}


def fig12_txn_rows() -> Rows:
    """Throughput (k txn/s) per series and job size."""
    return {
        name: {
            str(n): _txn(nranks=n, txns_per_rank=25, work_in_epoch_us=2.0,
                         think_time_us=3.0, **mode)["ktxn/s"]
            for n in TXN_RANKS
        }
        for name, mode in MODES
    }


def _pipelined_txn(txns_per_rank: int, **config) -> dict[str, float]:
    return _txn(nranks=8, txns_per_rank=txns_per_rank, nonblocking=True, reorder=True,
                max_pending=64, **config)


def credit_rows() -> Rows:
    """§VIII-B's scaling limitation, isolated: with per-peer credits
    exhausted by 64 simultaneously pending epochs, the A_A_A_R advantage
    collapses while every transaction is still applied."""
    return {
        label: _pipelined_txn(60, model=NetworkModel(credits_per_peer=credits, ack_latency=ack))
        for label, credits, ack in (("ample credits", 64, 1.0), ("starved credits", 1, 20.0))
    }


def flow_control_rows() -> Rows:
    """Credit flow control on / off (zero credits) under the same
    pipelined epochs."""
    return {
        label: _pipelined_txn(40, model=NetworkModel(credits_per_peer=credits, ack_latency=10.0))
        for label, credits in (("flow control on", 2), ("flow control off", 0))
    }


@cache
def lu_panel(m: int) -> tuple[Rows, Rows]:
    """One Fig. 13 panel pair for an ``m`` x ``m`` matrix: overall time
    (ms) and communication share (%) per series and job size.  Cached:
    the two figures of a pair read one run (treat the rows as
    read-only)."""
    times: Rows = {s.label: {} for s in SERIES}
    comm: Rows = {s.label: {} for s in SERIES}
    for s in SERIES:
        for n in LU_RANKS:
            res = run_lu(LUConfig(nranks=n, m=m, engine=s.engine, nonblocking=s.nonblocking,
                                  work_per_cell_us=0.08, cores_per_node=1, model=LU_MODEL))
            times[s.label][str(n)] = res.elapsed_us / 1e3
            comm[s.label][str(n)] = 100.0 * res.comm_fraction
    return times, comm


def netspeed_lu_rows() -> Rows:
    """LU (8 ranks, 96²) under blocking and nonblocking drive at each
    fabric speed, co-scaled like :data:`LU_MODEL`."""
    rows: Rows = {}
    for label, bw in BANDWIDTHS.items():
        model = NetworkModel(internode_bw=bw / 20.0, intranode_bw=bw / 10.0)
        blocking, nonblocking = (
            run_lu(LUConfig(nranks=8, m=96, work_per_cell_us=0.08, cores_per_node=1,
                            model=model, nonblocking=nb)).elapsed_us / 1e3
            for nb in (False, True)
        )
        rows[label] = {"blocking": blocking, "nonblocking": nonblocking,
                       "speedup": blocking / nonblocking}
    return rows


def factdb_rows() -> Rows:
    """Rule firings (k/s) per mode and job size; the final fact table is
    verified bit-for-bit against the sequential reference in every cell."""
    rows: Rows = {name: {} for name, _ in MODES}
    for name, mode in MODES:
        for n in FACTDB_RANKS:
            cfg = FactDbConfig(nranks=n, firings_per_rank=25, **mode)
            res = run_factdb(cfg)
            np.testing.assert_array_equal(res.table, reference_table(cfg))
            rows[name][str(n)] = res.total_firings / (res.elapsed_us / 1e6) / 1e3
    return rows
