"""The six workloads, each at two sizes: seeded inputs, one rep, and the
benchmark's own check.

Each workload builds its inputs and its reference answer from the seed
once (``__init__``), can construct its runtime alone (the set-up probe),
and runs one rep — *construct runtime → run* — returning an
:class:`Outcome` whose answer :meth:`Workload.verify` checks against the
reference.  The program under test only ever sees the generated
config/inputs, never the seed's purpose or the workload's name.

A shape is part of a name's meaning: change one and rename the workload.
The six names of ISSUE 12 carry its shapes; ``<name>_quick`` is the same
program at a quarter of the size, small enough for ``BENCHMARK.json``'s
driver, which makes 136 runs under a time cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro import MPIRuntime
from repro.apps import (
    KvServiceConfig,
    LUConfig,
    TransactionsConfig,
    reference_kvservice,
    run_kvservice,
    run_lu,
    run_transactions,
)
from repro.network.model import NetworkModel
from repro.rma.flags import A_A_A_R
from repro.rma.window import LOCK_SHARED

from .spans import Spans

__all__ = ["Outcome", "Workload", "WORKLOADS", "FULL", "QUICK", "DEFAULT_SEED"]

DEFAULT_SEED = 2014


@dataclass
class Outcome:
    """What one rep hands back to the harness."""

    runtime: MPIRuntime
    #: Simulated makespan (virtual µs) as the workload defines it.
    virtual_us: float
    #: The byte-comparable answer (checked by ``verify``, hashed by the harness).
    answer: Any
    #: Workload-specific virtual-time figures (``apps.*`` metrics).
    extras: dict[str, float] = field(default_factory=dict)


def _capturing(config_cls):
    """Subclass an app config so the harness can see inside ``run_*``
    without touching ``src/``: ``keep_runtime`` always hands the runtime
    back (counters are read off an untelemetered run) and construction
    is recorded as a ``construct`` span."""

    @dataclass(frozen=True)
    class Capturing(config_cls):
        spans: Any = None

        def make_runtime(self):
            with self.spans.span("construct"):
                return super().make_runtime()

        def keep_runtime(self, runtime):
            return runtime

    Capturing.__name__ = Capturing.__qualname__ = f"Capturing{config_cls.__name__}"
    return Capturing


class Workload:
    """One named workload at one seed."""

    name: str
    #: What one operation is.
    op_unit: str
    why: str
    #: Whether the run opens RMA epochs (the causal rep applies).
    rma = True

    def __init__(self, seed: int):
        self.seed = seed

    @property
    def ops(self) -> int:
        """Application operations per rep (the ``ops_per_s`` numerator)."""
        raise NotImplementedError

    @property
    def shape(self) -> str:
        """The program and every size that defines this name."""
        raise NotImplementedError

    def make_runtime(self, spans: Spans, **obs: bool) -> MPIRuntime:
        """Construct the runtime alone (set-up probe)."""
        raise NotImplementedError

    def run(self, spans: Spans, **obs: bool) -> Outcome:
        """One rep: construct the runtime and run the program on it.
        ``obs`` is ``metrics=True`` / ``causal=True`` for traced reps."""
        raise NotImplementedError

    def verify(self, outcome: Outcome) -> int:
        """Operations whose result fails the check (0 = all correct)."""
        raise NotImplementedError


class _AppWorkload(Workload):
    """A workload that is one ``repro.apps`` program."""

    def config(self, spans: Spans, **obs: bool):
        raise NotImplementedError

    def make_runtime(self, spans, **obs):
        return self.config(spans, **obs).make_runtime()


# -- Fig. 12: transactions ---------------------------------------------------
_TxnConfig = _capturing(TransactionsConfig)


class _Transactions(_AppWorkload):
    nranks = 64
    txns_per_rank = 60
    slots_per_rank = 64
    max_pending = 32
    op_unit = "txn"
    deferred: bool

    @property
    def ops(self):
        return self.nranks * self.txns_per_rank

    @property
    def shape(self):
        return (f"run_transactions: {self.nranks} ranks x {self.txns_per_rank} txns, "
                f"slots_per_rank={self.slots_per_rank}, work_in_epoch_us=2, think_time_us=3, "
                f"engine nonblocking, nonblocking={self.deferred}, reorder={self.deferred}"
                f"{' (A_A_A_R)' if self.deferred else ''}, max_pending={self.max_pending}")

    def __init__(self, seed):
        super().__init__(seed)
        # The benchmark's own reference: replay every rank's draws and
        # count the updates each target must end up holding.
        self.expected = [0] * self.nranks
        for rank in range(self.nranks):
            rng = np.random.default_rng(seed + rank * 7919)
            for _ in range(self.txns_per_rank):
                self.expected[int(rng.integers(0, self.nranks))] += 1
                rng.integers(0, self.slots_per_rank)

    def config(self, spans, **obs):
        return _TxnConfig(
            self.nranks,
            txns_per_rank=self.txns_per_rank,
            slots_per_rank=self.slots_per_rank,
            work_in_epoch_us=2.0,
            think_time_us=3.0,
            engine="nonblocking",
            nonblocking=self.deferred,
            reorder=self.deferred,
            max_pending=self.max_pending,
            seed=self.seed,
            spans=spans,
            **obs,
        )

    def run(self, spans, **obs):
        res = run_transactions(self.config(spans, **obs))
        return Outcome(res.runtime, res.elapsed_us, (res.applied, res.rank_sums))

    def verify(self, outcome):
        applied, rank_sums = outcome.answer
        wrong = sum(abs(got - want) for got, want in zip(rank_sums, self.expected))
        return min(self.ops, wrong + abs(applied - self.ops))


class TxnDeferred(_Transactions):
    name = "txn_deferred"
    deferred = True
    why = ("Fig. 12 headline: i* drive + A_A_A_R builds deep deferred-epoch queues, "
           "so rma.engine dominates host time")


class TxnBlocking(_Transactions):
    name = "txn_blocking"
    deferred = False
    why = ("control for txn_deferred: same stream and engine under the blocking drive, "
           "one live epoch per window; an epoch-scan gain predicts no change")


# -- Fig. 13: LU ---------------------------------------------------------------
_LUConfig = _capturing(LUConfig)


class LuGats(_AppWorkload):
    name = "lu_gats"
    nranks = 24
    m = 384
    op_unit = "pivot step"
    why = ("Fig. 13: the only GATS workload, counter-signal matching, multi-KB puts to "
           "n-1 peers and real numpy updates; highest simtime share of the RMA workloads")

    @property
    def ops(self):
        return self.m

    @property
    def shape(self):
        return (f"run_lu real-compute mode (work_per_cell_us=None): {self.nranks} ranks, "
                f"m={self.m}, cores_per_node=1, engine signal, nonblocking=True, seeded "
                "diagonally dominant matrix")

    def __init__(self, seed):
        super().__init__(seed)
        m = self.m
        self.matrix = np.random.default_rng(seed).standard_normal((m, m)) + np.eye(m) * m
        # Unpivoted Doolittle LU, the same elementwise arithmetic as the
        # app's row updates, so the comparison is bit-exact.
        lu = self.matrix.copy()
        for k in range(m - 1):
            factors = lu[k + 1:, k] / lu[k, k]
            lu[k + 1:, k:] -= factors[:, None] * lu[k, k:]
            lu[k + 1:, k] = factors
        self.expected = lu

    def config(self, spans, **obs):
        return _LUConfig(
            self.nranks,
            self.m,
            matrix=self.matrix,
            cores_per_node=1,
            engine="signal",
            nonblocking=True,
            spans=spans,
            **obs,
        )

    def run(self, spans, **obs):
        res = run_lu(self.config(spans, **obs))
        return Outcome(res.runtime, res.elapsed_us, res.u_matrix,
                       {"apps.lu_comm_fraction": res.comm_fraction})

    def verify(self, outcome):
        rows_equal = (outcome.answer == self.expected).all(axis=1)
        return int(self.m - np.count_nonzero(rows_equal))


# -- sharded KV service ----------------------------------------------------------
_KvConfig = _capturing(KvServiceConfig)


class KvOpenLoop(_AppWorkload):
    name = "kv_openloop"
    nranks = 16
    requests_per_rank = 1200
    rebalance_every = 200
    op_unit = "request"
    why = ("one long lock_all epoch: accumulate/get_accumulate + flushes and repro.coll "
           "collectives, no epoch open/close traffic; shows a cost moved onto the flush path")

    @property
    def ops(self):
        return self.nranks * self.requests_per_rank

    @property
    def shape(self):
        return (f"run_kvservice: {self.nranks} ranks, keys_per_shard=64, requests_per_rank="
                f"{self.requests_per_rank}, rebalance_every={self.rebalance_every}, engine "
                "signal, nonblocking=False, open loop in virtual time (4 us arrival period)")

    def __init__(self, seed):
        super().__init__(seed)
        self.expected = reference_kvservice(self.config(None))

    def config(self, spans, **obs):
        return _KvConfig(
            self.nranks,
            keys_per_shard=64,
            requests_per_rank=self.requests_per_rank,
            rebalance_every=self.rebalance_every,
            engine="signal",
            nonblocking=False,
            seed=self.seed,
            spans=spans,
            **obs,
        )

    def run(self, spans, **obs):
        res = run_kvservice(self.config(spans, **obs))
        return Outcome(
            res.runtime, res.elapsed_us, (res.tables, res.stats),
            {"apps.kv_lat_mean_us": res.latency_mean_us,
             "apps.kv_lat_p99_us": res.latency_p99_us},
        )

    def verify(self, outcome):
        tables, stats = outcome.answer
        if stats[0] + stats[1] != self.ops:  # gets + adds == requests
            return self.ops
        wrong = sum(
            got != want
            for got_row, want_row in zip(tables, self.expected)
            for got, want in zip(got_row, want_row)
        )
        return min(self.ops, wrong)


# -- 1024-rank contended fan-in (benchmark-owned generator) ------------------------
class FanIn1024(Workload):
    name = "fanin_1024"
    nranks = 1024
    rounds = 12
    hot_div = 4
    nbytes = 8
    op_unit = "put"
    why = ("the only large-N and only baseline-engine cell: sparse lock state, lazy "
           "flow-control pools, MVAPICH scan server; where peak_rss_mb and setup_s matter")

    @property
    def ops(self):
        return (self.nranks - 1) * self.rounds

    @property
    def shape(self):
        return (f"shared lock/put({self.nbytes} B)/unlock x {self.rounds} rounds per worker, "
                f"rank 0 pure lock server, every {self.hot_div}th worker visits rank 0 on a "
                f"staggered round, baseline_scan_cost_us=0.12, {self.nranks} ranks, "
                "cores_per_node=1, engine mvapich; no random input")

    def make_runtime(self, spans, **obs):
        model = NetworkModel().with_overrides(baseline_scan_cost_us=0.12)
        with spans.span("construct"):
            return MPIRuntime(self.nranks, cores_per_node=1, engine="mvapich",
                              model=model, **obs)

    def _app(self, proc):
        rounds, hot_div, nbytes = self.rounds, self.hot_div, self.nbytes
        win = yield from proc.win_allocate(max(nbytes, 64) * 4, info={A_A_A_R: "true"})
        me, n = proc.rank, proc.size
        data = np.zeros(nbytes, dtype=np.uint8)
        if me == 0:
            # Pure lock server: host the window, then wait everyone out.
            yield from proc.barrier()
            return 0
        # Every hot_div-th worker visits rank 0 once, on a round spread
        # across the run so arrivals are staggered.
        hot_round = ((me - 1) // hot_div) % rounds if (me - 1) % hot_div == 0 else -1
        puts = 0
        for k in range(rounds):
            if k == hot_round:
                target = 0
            else:
                # Rotating uniform peer, self-collisions displaced.
                target = 1 + (me - 1 + k * 7 + 1) % (n - 1)
                if target == me:
                    target = 1 + (target % (n - 1))
            yield from win.lock(target, LOCK_SHARED)
            win.put(data, target, 0)
            yield from win.unlock(target)
            puts += 1
        yield from proc.barrier()
        return puts

    def run(self, spans, **obs):
        rt = self.make_runtime(spans, **obs)
        puts = rt.run(self._app)
        return Outcome(rt, rt.now, tuple(puts))

    def verify(self, outcome):
        wrong = sum(got != want for got, want in
                    zip(outcome.answer, [0] + [self.rounds] * (self.nranks - 1)))
        return min(self.ops, wrong * self.rounds)


# -- two-sided ring (benchmark-owned generator) ------------------------------------
class P2PRing(Workload):
    name = "p2p_ring"
    nranks = 64
    iterations = 300
    reduce_every = 10
    cells = 8192  # int64 cells per message: 64 KiB, rendezvous path
    modulus = 1_000_003
    op_unit = "rank-iteration"
    rma = False
    why = ("bypasses the RMA stack: simtime, network and mpi carry the host time; every "
           "RMA-engine optimisation predicts no change, a DES or fabric one shows here")

    @property
    def ops(self):
        return self.nranks * self.iterations

    @property
    def shape(self):
        return (f"{self.nranks} ranks, cores_per_node=8, {self.iterations} iterations of "
                f"irecv x2 / isend x2 ({self.cells * 8 // 1024} KiB int64 payloads, "
                f"rendezvous) + compute(2 us) + waitall, allreduce_sum every "
                f"{self.reduce_every}th iteration, modular integer recurrence from seeded "
                "initial states")

    def __init__(self, seed):
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        self.initial = [int(x) for x in rng.integers(0, self.modulus, self.nranks)]
        # Scalar reference of the recurrence the ranks compute.
        n, mod = self.nranks, self.modulus
        state = list(self.initial)
        total = 0
        for it in range(1, self.iterations + 1):
            state = [
                (3 * state[r] + state[(r - 1) % n] + 2 * (state[(r + 1) % n] + self.cells - 1))
                % mod
                for r in range(n)
            ]
            if it % self.reduce_every == 0:
                total = sum(state)
                state = [(x + total) % mod for x in state]
        self.expected = (tuple(state), total)

    def make_runtime(self, spans, **obs):
        with spans.span("construct"):
            return MPIRuntime(self.nranks, cores_per_node=8, **obs)

    def _app(self, proc):
        n, mod = proc.size, self.modulus
        left, right = (proc.rank - 1) % n, (proc.rank + 1) % n
        ramp = np.arange(self.cells, dtype=np.int64)
        x = self.initial[proc.rank]
        total = 0
        for it in range(1, self.iterations + 1):
            recvs = [proc.irecv(left, tag=it), proc.irecv(right, tag=it)]
            payload = ramp + x
            sends = [proc.isend(left, 0, tag=it, data=payload),
                     proc.isend(right, 0, tag=it, data=payload)]
            yield from proc.compute(2.0)
            from_left, from_right = yield from proc.waitall(recvs)
            yield from proc.waitall(sends)
            # First cell of the left message, last cell of the right one:
            # a truncated or misrouted payload changes the answer.
            x = (3 * x + int(from_left[0]) + 2 * int(from_right[-1])) % mod
            if it % self.reduce_every == 0:
                total = int((yield from proc.allreduce_sum(np.int64([x])))[0])
                x = (x + total) % mod
        return x, total

    def run(self, spans, **obs):
        rt = self.make_runtime(spans, **obs)
        results = rt.run(self._app)
        return Outcome(rt, rt.now, (tuple(x for x, _ in results),
                                    tuple(t for _, t in results)))

    def verify(self, outcome):
        states, totals = outcome.answer
        want_states, want_total = self.expected
        wrong = sum(
            not (got == want and total == want_total)
            for got, want, total in zip(states, want_states, totals)
        )
        return wrong * self.iterations


def _quick(cls: type[Workload], **sizes: int) -> type[Workload]:
    """``cls``'s program at a quarter of the size, under its own name."""
    return type(f"{cls.__name__}Quick", (cls,), {
        "name": f"{cls.name}_quick", "why": f"quarter-size {cls.name}: {cls.why}", **sizes})


_TXN_QUICK = {"nranks": 32, "txns_per_rank": 30, "max_pending": 16}

#: ISSUE 12's six shapes: what ``python3 -m perf`` measures.
FULL: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (TxnDeferred, TxnBlocking, LuGats, KvOpenLoop, FanIn1024, P2PRing)
}
#: The quarter-size shapes: ``--quick`` and ``BENCHMARK.json``'s workloads.
QUICK: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        _quick(TxnDeferred, **_TXN_QUICK),
        _quick(TxnBlocking, **_TXN_QUICK),
        _quick(LuGats, m=120),
        _quick(KvOpenLoop, requests_per_rank=300, rebalance_every=50),
        _quick(FanIn1024, rounds=3),
        _quick(P2PRing, iterations=75),
    )
}
WORKLOADS: dict[str, type[Workload]] = {**FULL, **QUICK}
