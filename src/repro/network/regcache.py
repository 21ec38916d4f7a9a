"""Memory-registration (pinning) cache.

InfiniBand RDMA requires buffers to be registered (pinned).  Registration
is expensive, so implementations keep an LRU cache of pinned regions;
§VII-D step 1 of the paper's progress engine "un-pins or puts back
previously pinned memory in the memory registration cache".  The model
here charges a size-dependent cost on cache misses and nothing on hits.
"""

from __future__ import annotations

from collections import OrderedDict
from types import MappingProxyType

__all__ = ["RegistrationCache"]

#: The entries of a cache with nothing pinned (shared, read-only).
_NO_REGIONS = MappingProxyType({})


class RegistrationCache:
    """Per-rank LRU cache of pinned (base, size) regions.

    Regions are cached exactly as requested; overlapping but non-identical
    regions are distinct entries, which matches the behaviour of simple
    registration caches keyed by (address, length).
    """

    __slots__ = ("capacity", "base_cost", "cost_per_kb", "_entries", "_used", "hits",
                 "misses", "evictions")

    def __init__(self, capacity_bytes: int, base_cost: float, cost_per_kb: float):
        if capacity_bytes < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity_bytes
        self.base_cost = base_cost
        self.cost_per_kb = cost_per_kb
        #: Pinned regions, least recently used first: an ``OrderedDict``
        #: while any is pinned, ``_NO_REGIONS`` otherwise.
        self._entries: OrderedDict[tuple[int, int], int] | MappingProxyType = _NO_REGIONS
        self._used = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def pin_cost(self, base: int, size: int) -> float:
        """Cost of making ``(base, size)`` usable for RDMA right now.

        Updates the cache (inserting on miss, refreshing LRU position on
        hit) and returns the registration time to charge: 0 on a hit,
        ``base_cost + cost_per_kb * size/1024`` on a miss.
        """
        if size < 0:
            raise ValueError("negative region size")
        key = (base, size)
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
            self.hits += 1
            return 0.0
        self.misses += 1
        cost = self.base_cost + self.cost_per_kb * (size / 1024.0)
        if size <= self.capacity:
            while self._used + size > self.capacity and entries:
                _, evicted = entries.popitem(last=False)
                self._used -= evicted
                self.evictions += 1
            if not entries:
                self._entries = entries = OrderedDict()
            entries[key] = size
            self._used += size
        return cost

    def invalidate(self, base: int, size: int) -> bool:
        """Drop a region (e.g. freed memory); returns whether it was cached."""
        entry = self._entries.get((base, size))
        if entry is None:
            return False
        del self._entries[base, size]
        if not self._entries:
            self._entries = _NO_REGIONS
        self._used -= entry
        return True

    @property
    def used_bytes(self) -> int:
        """Bytes currently pinned."""
        return self._used

    def __len__(self) -> int:
        return len(self._entries)
