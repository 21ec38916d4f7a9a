"""Collective operations built on the two-sided layer.

Only what the paper's workloads and benchmarks need: a dissemination
barrier, a binomial-tree broadcast, and a binomial-tree reduce/allreduce
for gathering per-rank statistics.  Internal traffic goes straight to the
rank's ``P2PEngine`` on reserved negative tags, which ``ANY_TAG`` never matches.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .process import MPIProcess

__all__ = [
    "barrier",
    "bcast",
    "reduce_sum",
    "allreduce_sum",
    "gather",
    "alltoallv",
    "allgather",
]

# Reserved internal tag bases (-100 to -199: p2p.TAG_BARRIER).
_TAG_BCAST = -200
_TAG_REDUCE = -300
_TAG_GATHER = -400
_TAG_ALLRED = -500
_TAG_A2AV = -600
_TAG_AGATHER = -700


def barrier(proc: "MPIProcess") -> Generator[Any, Any, None]:
    """Dissemination barrier (:class:`~repro.mpi.p2p.DisseminationBarrier`)."""
    if proc.size > 1:
        yield proc.middleware.p2p.barrier.enter()


def bcast(
    proc: "MPIProcess", data: np.ndarray | None = None, root: int = 0, nbytes: int | None = None
) -> Generator[Any, Any, np.ndarray | None]:
    """Binomial-tree broadcast; returns the data on every rank.

    ``nbytes`` sizes the transfer when ``data`` is None (timing-only use).
    """
    n = proc.size
    if n == 1:
        return data
    p2p = proc.middleware.p2p
    vrank = (proc.rank - root) % n
    # Receive from the parent (the rank that differs in our lowest set bit).
    mask = 1
    while mask < n:
        if vrank & mask:
            src = (proc.rank - mask + n) % n
            rreq = p2p.irecv(src, tag=_TAG_BCAST)
            data = yield from rreq.wait()
            break
        mask <<= 1
    size = nbytes if nbytes is not None else (data.nbytes if data is not None else 8)
    # Forward to children at decreasing bit distances.
    sends = []
    mask >>= 1
    while mask > 0:
        if vrank + mask < n:
            dst = (proc.rank + mask) % n
            sends.append(p2p.isend(dst, size, tag=_TAG_BCAST, data=data))
        mask >>= 1
    for s in sends:
        yield from s.wait()
    return data


def reduce_sum(
    proc: "MPIProcess", value: np.ndarray, root: int = 0
) -> Generator[Any, Any, np.ndarray | None]:
    """Binomial-tree sum-reduction to ``root``; returns the total there,
    None elsewhere."""
    n = proc.size
    acc = np.array(value, copy=True)
    if n == 1:
        return acc
    p2p = proc.middleware.p2p
    vrank = (proc.rank - root) % n
    mask = 1
    while mask < n:
        if vrank & mask:
            dst = ((vrank & ~mask) + root) % n
            sreq = p2p.isend(dst, acc.nbytes, tag=_TAG_REDUCE, data=acc)
            yield from sreq.wait()
            return None
        peer = vrank | mask
        if peer < n:
            rreq = p2p.irecv(((peer + root) % n), tag=_TAG_REDUCE)
            contrib = yield from rreq.wait()
            acc = acc + contrib.view(acc.dtype).reshape(acc.shape)
        mask <<= 1
    return acc


def allreduce_sum(
    proc: "MPIProcess", value: np.ndarray, root: int = 0
) -> Generator[Any, Any, np.ndarray]:
    """Reduce-then-broadcast allreduce (sum)."""
    total = yield from reduce_sum(proc, value, root)
    out = yield from bcast(proc, total, root)
    assert out is not None
    return np.asarray(out).view(np.asarray(value).dtype)


def gather(
    proc: "MPIProcess", value: np.ndarray, root: int = 0
) -> Generator[Any, Any, list[np.ndarray] | None]:
    """Linear gather of one array per rank to ``root`` (fine at the job
    sizes the benchmarks use for statistics collection)."""
    p2p = proc.middleware.p2p
    if proc.rank == root:
        out: list[np.ndarray | None] = [None] * proc.size
        out[root] = np.array(value, copy=True)
        reqs = {
            r: p2p.irecv(r, tag=_TAG_GATHER) for r in range(proc.size) if r != root
        }
        for r, req in reqs.items():
            data = yield from req.wait()
            out[r] = data.view(np.asarray(value).dtype)
        return out  # type: ignore[return-value]
    sreq = p2p.isend(root, np.asarray(value).nbytes, tag=_TAG_GATHER, data=np.asarray(value))
    yield from sreq.wait()
    return None


def alltoallv(
    proc: "MPIProcess",
    blocks,
    counts,
    dtype=np.int64,
) -> Generator[Any, Any, list[np.ndarray]]:
    """Pairwise two-sided alltoallv — the reference the one-sided
    persistent plans (:mod:`repro.coll`) are cross-checked against.

    ``blocks[j]`` is this rank's contribution for rank ``j`` (``None``
    stands for an empty block); ``counts[i][j]`` is the full element
    matrix, so zero pairs exchange no message at all.  Returns one
    received block per source rank (length ``counts[src][rank]``).
    """
    n, rank, p2p = proc.size, proc.rank, proc.middleware.p2p
    out: list[np.ndarray] = [np.zeros(0, dtype=dtype) for _ in range(n)]
    rreqs = {
        src: p2p.irecv(src, tag=_TAG_A2AV)
        for src in range(n)
        if src != rank and counts[src][rank]
    }
    sends = []
    for dst in range(n):
        c = int(counts[rank][dst])
        if not c:
            continue
        block = np.ascontiguousarray(
            np.zeros(0, dtype=dtype) if blocks[dst] is None
            else np.asarray(blocks[dst], dtype=dtype)
        )
        if block.size != c:
            raise ValueError(
                f"block for rank {dst} has {block.size} elements, "
                f"counts say {c}")
        if dst == rank:
            out[rank] = block.copy()
        else:
            sends.append(p2p.isend(dst, block.nbytes, tag=_TAG_A2AV, data=block))
    for src, req in rreqs.items():
        data = yield from req.wait()
        out[src] = np.asarray(data).view(dtype)
    for s in sends:
        yield from s.wait()
    return out


def allgather(
    proc: "MPIProcess", value: np.ndarray
) -> Generator[Any, Any, np.ndarray]:
    """Linear allgather; returns the rank-ordered concatenation.
    Per-rank contribution sizes may differ (allgatherv included)."""
    n, rank, p2p = proc.size, proc.rank, proc.middleware.p2p
    arr = np.ascontiguousarray(np.asarray(value))
    rreqs = {src: p2p.irecv(src, tag=_TAG_AGATHER) for src in range(n) if src != rank}
    sends = [
        p2p.isend(dst, arr.nbytes, tag=_TAG_AGATHER, data=arr)
        for dst in range(n)
        if dst != rank
    ]
    parts: list[np.ndarray | None] = [None] * n
    parts[rank] = arr.copy()
    for src, req in rreqs.items():
        data = yield from req.wait()
        parts[src] = np.asarray(data).view(arr.dtype)
    for s in sends:
        yield from s.wait()
    return np.concatenate(parts)  # type: ignore[arg-type]
