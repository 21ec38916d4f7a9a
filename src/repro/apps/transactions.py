"""Dynamic unstructured massive transactions (§IV-B, Fig. 12).

"At any given time, a set of peers {P_i} can update another (not
necessarily disjoint) set {P_j} of processes.  Processes do not know
ahead of time how many updates they will get; nor can they determine
where these updates will originate from or what buffer offset they will
modify.  [...] Each update is atomic and is best fulfilled inside
exclusive lock epochs."

Each rank performs ``txns_per_rank`` updates; an update accumulates an
8-byte counter increment at a random offset of a random peer's window,
inside its own exclusive-lock epoch.  Three execution modes:

- **blocking** — lock / accumulate / unlock, fully serialized ("MVAPICH"
  and "New" series);
- **nonblocking** — ilock / accumulate / iunlock back to back with up to
  ``max_pending`` epochs in flight ("New nonblocking");
- nonblocking with ``repro.A_A_A_R`` enabled on
  the window: out-of-order epoch progression, the contention-avoidance
  configuration of Fig. 12.

Correctness is verifiable: the sum over all windows' counters equals the
total number of transactions (every update adds exactly 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from typing import TYPE_CHECKING

from ..rma.flags import A_A_A_R
from .config import BaseAppConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mpi.runtime import MPIRuntime

__all__ = ["TransactionsConfig", "TransactionsResult", "run_transactions"]

_SLOT_BYTES = 8


@dataclass(frozen=True)
class TransactionsConfig(BaseAppConfig):
    """Workload parameters (runtime knobs on :class:`BaseAppConfig`)."""

    nranks: int
    txns_per_rank: int = 50
    slots_per_rank: int = 64
    reorder: bool = False
    max_pending: int = 32
    seed: int = 2014
    #: Work between transactions (outside any epoch).
    think_time_us: float = 0.0
    #: Work inside each epoch between the update call and the unlock
    #: (e.g. preparing the next transaction).  Exposes the lazy-lock
    #: baseline's lack of overlap: the eager engines hide this time
    #: behind lock acquisition and the transfer; the lazy one cannot.
    work_in_epoch_us: float = 0.0

    @property
    def window_bytes(self) -> int:
        return self.slots_per_rank * _SLOT_BYTES


@dataclass(frozen=True)
class TransactionsResult:
    """Aggregate outcome."""

    total_txns: int
    elapsed_us: float
    #: Updates applied across all windows (must equal total_txns).
    applied: int
    #: Flow-control stalls observed (contention metric).
    fc_stalls: int
    #: Per-rank window counter sums — the byte-comparable answer
    #: (identical across faulty and fault-free runs of the same seed).
    rank_sums: tuple = ()
    #: Reliability-layer retransmissions (0 without a fault plan).
    retransmissions: int = 0
    #: Duplicate packets suppressed before the middleware.
    dup_suppressed: int = 0
    #: Injector counters snapshot (None without a fault plan).
    faults_injected: dict | None = None
    #: The finished runtime (for ``metrics_summary()`` / trace export);
    #: ``None`` unless the config asked for telemetry.
    runtime: "MPIRuntime | None" = None

    @property
    def throughput_txn_per_s(self) -> float:
        """Transactions per wall-clock second (virtual time)."""
        if self.elapsed_us <= 0:
            return 0.0
        return self.total_txns / (self.elapsed_us / 1e6)


def _make_app(cfg: TransactionsConfig, finish_times: list[float]):
    info = {**cfg.checker_info()}
    if cfg.reorder:
        info[A_A_A_R] = 1

    def app(proc):
        rng = np.random.default_rng(cfg.seed + proc.rank * 7919)
        win = yield from proc.win_allocate(cfg.window_bytes, info=info)
        yield from proc.barrier()
        one = np.int64([1])

        if cfg.nonblocking:
            pending = []
            for _ in range(cfg.txns_per_rank):
                target = int(rng.integers(0, proc.size))
                slot = int(rng.integers(0, cfg.slots_per_rank))
                win.ilock(target)
                win.accumulate(one, target, slot * _SLOT_BYTES)
                if cfg.work_in_epoch_us:
                    yield from proc.compute(cfg.work_in_epoch_us)
                pending.append(win.iunlock(target))
                if cfg.think_time_us:
                    yield from proc.compute(cfg.think_time_us)
                if len(pending) >= cfg.max_pending:
                    # Retire the oldest half to bound middleware state.
                    half = len(pending) // 2
                    yield from proc.waitall(pending[:half])
                    pending = pending[half:]
            yield from proc.waitall(pending)
        else:
            for _ in range(cfg.txns_per_rank):
                target = int(rng.integers(0, proc.size))
                slot = int(rng.integers(0, cfg.slots_per_rank))
                yield from win.lock(target)
                win.accumulate(one, target, slot * _SLOT_BYTES)
                if cfg.work_in_epoch_us:
                    yield from proc.compute(cfg.work_in_epoch_us)
                yield from win.unlock(target)
                if cfg.think_time_us:
                    yield from proc.compute(cfg.think_time_us)

        finish_times[proc.rank] = proc.wtime()
        yield from proc.barrier()
        return int(win.view(np.int64).sum())

    return app


def run_transactions(cfg: TransactionsConfig) -> TransactionsResult:
    """Execute the workload; returns throughput and the correctness sum."""
    runtime = cfg.make_runtime()
    finish_times = [0.0] * cfg.nranks
    sums = runtime.run(_make_app(cfg, finish_times))
    total = cfg.nranks * cfg.txns_per_rank
    stats = runtime.stats()
    return TransactionsResult(
        total_txns=total,
        elapsed_us=max(finish_times),
        applied=int(sum(sums)),
        fc_stalls=stats.fc_stalls,
        rank_sums=tuple(int(s) for s in sums),
        retransmissions=stats.retransmissions,
        dup_suppressed=stats.dup_suppressed,
        faults_injected=dict(stats.faults_injected) if cfg.fault_plan is not None else None,
        runtime=cfg.keep_runtime(runtime),
    )
