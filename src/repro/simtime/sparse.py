"""Sparse counter container for O(active peers) engine state.

The RMA engines keep one per-window counter family indexed by
``(channel, peer)`` — the matching board's outbound / inbound / expected
triples (:mod:`repro.rma.notify`).  Dense ``np.zeros(nranks)`` backing
makes window registration — and every digest snapshot — O(nranks) even
when a rank only ever talks to a handful of peers, which is exactly the
per-pair state blowup "Quo Vadis MPI RMA?" documents for real
implementations.

:class:`SparseCounterMat` is a ``dict`` of Python ints: untouched keys
read as 0 and allocate nothing — loads never materialize an entry; only
stores do.  Every engine test is one scalar compare per peer
(``A_i <= g_r``), so there is no vector form to serve.

The container is deterministic: :meth:`~SparseCounterMat.row_items`
iterates nonzero entries in ascending key order, so digest material is
independent of touch order.
"""

from __future__ import annotations

from typing import Iterator

__all__ = ["SparseCounterMat"]


class SparseCounterMat:
    """Sparse counter matrix indexed by ``(row, peer)``.

    Scalar ``m[row, r]`` loads/stores.  Rows are a small fixed enum
    (signal channels); columns are peer ranks, materialized on store
    only.
    """

    __slots__ = ("_values",)

    def __init__(self):
        self._values: dict[tuple[int, int], int] = {}

    def __getitem__(self, key: tuple[int, int]) -> int:
        return self._values.get(key, 0)

    def __setitem__(self, key: tuple[int, int], value: int) -> None:
        self._values[key] = value

    def row_items(self, row: int) -> Iterator[tuple[int, int]]:
        """Nonzero ``(peer, value)`` pairs of ``row``, ascending peer."""
        values = self._values
        for col in sorted(k[1] for k in values if k[0] == row):
            v = values[row, col]
            if v:
                yield col, v

    def touched(self) -> int:
        """Number of materialized entries (test/diagnostic hook)."""
        return len(self._values)
