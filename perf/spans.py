"""The harness's own spans: name, start, end, parent, shared id.

Recorded in memory around the calls into the program and written out
when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

__all__ = ["Spans"]


class Spans:
    """In-memory span list for one workload run (the shared id)."""

    def __init__(self, workload: str):
        self.workload = workload
        self.records: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record one span; yields its record (``end`` filled on exit)."""
        rec = {
            "id": len(self.records),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "start": time.perf_counter(),
            "end": None,
        }
        self.records.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()
