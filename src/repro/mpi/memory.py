"""Per-rank memory: window buffers that data really moves through.

Every RMA window allocates a :class:`WindowMemory` on each rank.  Puts,
gets and accumulates copy/reduce real bytes at virtual delivery time, so
the test suite can verify MPI-3 consistency rules rather than trusting
the timing model alone.
"""

from __future__ import annotations

import numpy as np

from .datatypes import BYTE, Datatype

__all__ = ["WindowMemory"]


class WindowMemory:
    """A contiguous byte buffer exposed for remote access."""

    __slots__ = ("rank", "buf")

    def __init__(self, nbytes: int, rank: int):
        if nbytes < 0:
            raise ValueError(f"negative window size: {nbytes}")
        self.rank = rank
        self.buf = np.zeros(nbytes, dtype=np.uint8)

    @property
    def nbytes(self) -> int:
        """Window extent in bytes."""
        return self.buf.nbytes

    def _check(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.nbytes:
            raise ValueError(
                f"window access [{offset}, {offset + length}) outside "
                f"window of {self.nbytes} bytes on rank {self.rank}"
            )

    def read(self, offset: int, length: int) -> np.ndarray:
        """Copy out ``length`` bytes starting at ``offset``."""
        self._check(offset, length)
        return self.buf[offset : offset + length].copy()

    def write(self, offset: int, data: np.ndarray) -> None:
        """Copy ``data`` (viewed as bytes) into the window at ``offset``."""
        raw = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
        self._check(offset, raw.nbytes)
        self.buf[offset : offset + raw.nbytes] = raw

    def view(self, dtype: Datatype = BYTE, offset: int = 0, count: int | None = None) -> np.ndarray:
        """A typed in-place view (mutations are visible to remote gets)."""
        if count is None:
            count = (self.nbytes - offset) // dtype.size
        self._check(offset, count * dtype.size)
        return dtype.view(self.buf, offset, count)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<WindowMemory rank={self.rank} {self.nbytes}B>"
