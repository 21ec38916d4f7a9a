"""Sharded KV service over multi-tenant RMA windows (eighth workload).

A counter-style key-value service: ``nranks`` server ranks each hold one
*physical* shard (a window of ``keys_per_shard`` 64-bit counters) and
simultaneously act as clients.  An **open-loop** traffic generator on
every rank issues requests at a fixed virtual-time arrival period —
arrivals do not wait for completions, so queueing shows up as latency,
not as reduced offered load.  Each generated request stands for
``clients_per_request`` coalesced client increments, which is how a
small simulation drives ~10⁶ *simulated* client requests through the
service at demo scale.

Data path (multi-tenant passive access): every rank holds one shared
``lock_all`` epoch on the store window for the whole run; an **ADD**
is an ``accumulate`` (elementwise-atomic, commutative — the final
store is schedule- and engine-independent) into the owner's shard, a
**GET** is a ``get`` + flush (its value is timing-dependent and is
excluded from digests).

Control path (:mod:`repro.coll` persistent collectives, planned once):

- **shard rebalancing** — every ``rebalance_every`` requests the logical
  → physical shard map rotates by one: rank ``r``'s entire table moves
  to rank ``r + 1`` through a persistent **alltoallv** (fixed cyclic
  counts matrix, so the plan is reusable).  The drain protocol —
  ``flush_all`` → barrier → read → exchange → install → barrier — means
  no client update can race a moving shard, and therefore no update is
  ever lost;
- **stats aggregation** — a persistent RMA **allreduce** sums the
  service counters (gets, adds, simulated clients, store occupancy)
  after every rebalance.

Logical shard ``l`` lives on rank ``(l + e) % nranks`` during epoch
``e``; increments therefore land in the *logical* shard no matter where
it physically lives, which gives the closed-form reference
(:func:`reference_kvservice`): accumulate every ADD into its logical
shard, then rotate the final placement by the number of rebalances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..coll import plan_allreduce, plan_alltoallv
from .config import BaseAppConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mpi.runtime import MPIRuntime

__all__ = [
    "KvServiceConfig",
    "KvServiceResult",
    "run_kvservice",
    "reference_kvservice",
]

_I8 = np.int64
_ITEM = 8

#: Stats vector layout for the persistent allreduce.
_S_GETS, _S_ADDS, _S_CLIENTS, _S_OCCUPANCY = range(4)


@dataclass(frozen=True)
class KvServiceConfig(BaseAppConfig):
    """KV-service parameters (runtime knobs on :class:`BaseAppConfig`)."""

    nranks: int
    #: Counters per shard; the keyspace is ``nranks * keys_per_shard``.
    keys_per_shard: int = 16
    #: Requests the generator on each rank issues in total.
    requests_per_rank: int = 120
    #: Requests between shard-map rotations (per rank, uniform).
    rebalance_every: int = 40
    #: Fraction of requests that are GETs (the rest are ADDs).
    get_fraction: float = 0.25
    #: Client increments each generated request coalesces.
    clients_per_request: int = 1
    #: Open-loop inter-arrival time (virtual µs).
    arrival_period_us: float = 4.0
    #: In-flight ADD flushes under the nonblocking drive.
    max_pending: int = 16
    seed: int = 777

    @property
    def total_keys(self) -> int:
        return self.nranks * self.keys_per_shard

    @property
    def rebalances(self) -> int:
        """Rounds = rebalances (one rotation closes every round)."""
        return -(-self.requests_per_rank // self.rebalance_every)


@dataclass(frozen=True)
class KvServiceResult:
    """Service outcome: the digest-stable state plus timing telemetry."""

    #: Per-rank final shard tables (the byte-comparable answer).
    tables: tuple[tuple[int, ...], ...]
    #: Final globally-allreduced stats: (gets, adds, clients, occupancy).
    stats: tuple[int, ...]
    #: Shard-map rotations performed.
    rebalances: int
    elapsed_us: float
    #: Mean / p99 ADD+GET latency in virtual µs (timing-dependent:
    #: excluded from digests).
    latency_mean_us: float
    latency_p99_us: float
    #: The finished runtime (for ``metrics_summary()`` / trace export);
    #: ``None`` unless the config asked for telemetry.
    runtime: "MPIRuntime | None" = None


def _request_stream(cfg: KvServiceConfig, rank: int):
    """The per-rank request sequence; shared verbatim by the app and the
    reference so both replay identical RNG draws."""
    rng = np.random.default_rng(cfg.seed + 6007 * rank)
    for _ in range(cfg.requests_per_rank):
        is_get = bool(rng.random() < cfg.get_fraction)
        key = int(rng.integers(0, cfg.total_keys))
        # Drawn for GETs too, keeping the stream alignment trivial.
        value = int(rng.integers(1, 10)) * cfg.clients_per_request
        yield is_get, key, value


def reference_kvservice(cfg: KvServiceConfig) -> tuple[tuple[int, ...], ...]:
    """Closed-form final tables: ADDs commute into logical shards; the
    final physical placement is the logical map rotated ``rebalances``
    times (rank ``r`` ends up holding logical shard ``(r - E) % n``)."""
    logical = np.zeros((cfg.nranks, cfg.keys_per_shard), dtype=_I8)
    for rank in range(cfg.nranks):
        for is_get, key, value in _request_stream(cfg, rank):
            if not is_get:
                logical[key // cfg.keys_per_shard, key % cfg.keys_per_shard] += value
    shift = cfg.rebalances % cfg.nranks
    return tuple(
        tuple(int(v) for v in logical[(r - shift) % cfg.nranks])
        for r in range(cfg.nranks)
    )


def run_kvservice(cfg: KvServiceConfig) -> KvServiceResult:
    """Run the service; returns tables, stats and latency telemetry."""
    finish: dict[int, float] = {}
    latencies: dict[int, list[float]] = {}

    def app(proc):
        n, keys = proc.size, cfg.keys_per_shard
        store = yield from proc.win_allocate(
            keys * _ITEM, info=cfg.checker_info() or None, name="kv.store")

        # Persistent control-path collectives, planned exactly once.
        rotation = [[keys if j == (i + 1) % n else 0 for j in range(n)]
                    for i in range(n)]
        rebalance = yield from plan_alltoallv(proc, rotation)
        stats_red = yield from plan_allreduce(proc, 4)

        yield from store.lock_all()
        yield from proc.barrier()
        t0 = proc.wtime()

        requests = _request_stream(cfg, proc.rank)
        lat: list[float] = []
        gets = adds = clients = 0
        next_arrival = t0
        pending: list[tuple[float, object]] = []
        totals = np.zeros(4, dtype=_I8)

        def retire(until: int):
            nonlocal pending
            for arrival, req in pending[:until]:
                yield from req.wait()
                # Sampled at the flush's completion, not at whenever this
                # loop got around to noticing it.
                lat.append(req.completed_at - arrival)
            pending = pending[until:]

        for epoch in range(cfg.rebalances):
            in_round = min(cfg.rebalance_every,
                           cfg.requests_per_rank - epoch * cfg.rebalance_every)
            for _ in range(in_round):
                is_get, key, value = next(requests)
                # Open loop: wait out the inter-arrival gap, never the
                # previous request.
                if proc.wtime() < next_arrival:
                    yield from proc.compute(next_arrival - proc.wtime())
                arrival = next_arrival
                next_arrival += cfg.arrival_period_us
                owner = (key // keys + epoch) % n
                disp = (key % keys) * _ITEM
                if is_get:
                    # Atomic read: fetch-and-add of 0 — a plain GET
                    # would race the concurrent ADD accumulates, while
                    # same-op accumulate overlaps are MPI-blessed.
                    buf = np.zeros(1, dtype=_I8)
                    store.get_accumulate(np.zeros(1, dtype=_I8), buf, owner, disp)
                    yield from store.flush(owner)
                    lat.append(proc.wtime() - arrival)
                    gets += 1
                else:
                    store.accumulate(np.asarray([value], dtype=_I8), owner, disp)
                    adds += 1
                    clients += cfg.clients_per_request
                    if cfg.nonblocking:
                        pending.append((arrival, store.iflush(owner)))
                        if len(pending) >= cfg.max_pending:
                            yield from retire(len(pending) // 2)
                    else:
                        yield from store.flush(owner)
                        lat.append(proc.wtime() - arrival)

            # -- rebalance: drain, rotate the shard, aggregate stats --
            yield from retire(len(pending))
            yield from store.flush_all()
            yield from proc.barrier()
            table = store.view(_I8, 0, keys).copy()
            rebalance.start([table if j == (proc.rank + 1) % n else None
                             for j in range(n)])
            blocks = yield from rebalance.wait()
            incoming = blocks[(proc.rank - 1) % n]
            store.view(_I8, 0, keys)[:] = incoming
            contrib = np.zeros(4, dtype=_I8)
            contrib[_S_GETS], contrib[_S_ADDS] = gets, adds
            contrib[_S_CLIENTS] = clients
            contrib[_S_OCCUPANCY] = int(np.count_nonzero(incoming))
            stats_red.start(contrib)
            totals = yield from stats_red.wait()
            yield from proc.barrier()

        yield from store.unlock_all()
        yield from rebalance.finish()
        yield from stats_red.finish()
        yield from proc.barrier()
        finish[proc.rank] = proc.wtime() - t0
        latencies[proc.rank] = lat
        return store.view(_I8, 0, keys).copy(), totals

    runtime = cfg.make_runtime()
    outs = runtime.run(app)
    all_lat = np.array(sorted(x for l in latencies.values() for x in l))
    stats = outs[0][1]
    assert all(np.array_equal(stats, s) for _, s in outs)
    return KvServiceResult(
        tables=tuple(tuple(int(v) for v in table) for table, _ in outs),
        stats=tuple(int(v) for v in stats),
        rebalances=cfg.rebalances,
        elapsed_us=max(finish.values()),
        latency_mean_us=float(all_lat.mean()) if all_lat.size else 0.0,
        latency_p99_us=float(np.percentile(all_lat, 99)) if all_lat.size else 0.0,
        runtime=cfg.keep_runtime(runtime),
    )
