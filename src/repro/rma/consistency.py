"""Memory-consistency hazard tracking for concurrently progressed epochs.

§VI-B warns that enabling any reorder flag lets the RMA communications
of epoch ``E_{k+1}`` be transferred before those of ``E_k``, so write
reordering can occur unless "the RMA activities of concurrently
progressed epochs involve strictly disjoint memory regions" (§VI-C).

This tracker implements the §VI-C reasoning as a runtime check: every
op issued while other epochs of the same window are concurrently active
is recorded with its target byte-range; overlapping ranges on the same
target between different concurrent epochs — where at least one side
writes — are reported as hazards.

The tracker runs inside the full semantics checker
(:mod:`repro.rma.checker`, info key ``repro.semantics_check=1``), which
feeds it every issued op and exposes its report through
``RmaChecker.hazards()`` alongside five further violation classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .ops import RmaOp

__all__ = ["ConsistencyTracker", "Hazard", "OpRecord"]


@dataclass(frozen=True)
class OpRecord:
    """One op issued under epoch concurrency."""

    origin: int
    epoch_uid: int
    concurrent_with: tuple[int, ...]
    target: int
    start: int
    end: int
    writes: bool
    op_uid: int


@dataclass(frozen=True)
class Hazard:
    """Two ops from concurrently progressed epochs touching overlapping
    target memory, at least one writing."""

    first: OpRecord
    second: OpRecord

    @property
    def overlap(self) -> tuple[int, int]:
        """The overlapping byte range."""
        return max(self.first.start, self.second.start), min(self.first.end, self.second.end)


class ConsistencyTracker:
    """Per-window-group hazard detector."""

    def __init__(self) -> None:
        self.records: list[OpRecord] = []

    def record(self, op: "RmaOp", epoch_uid: int, concurrent: list[int]) -> None:
        """Record one op issued while ``concurrent`` epochs were active."""
        if not concurrent:
            return
        start, end = op.target_range
        self.records.append(
            OpRecord(
                origin=op.origin,
                epoch_uid=epoch_uid,
                concurrent_with=tuple(concurrent),
                target=op.target,
                start=start,
                end=end,
                writes=op.kind.writes_target,
                op_uid=op.uid,
            )
        )

    def hazards(self) -> list[Hazard]:
        """All overlapping-range pairs between concurrent epochs.

        Accumulate-family ops are elementwise atomic but still *ordered*
        operations; the paper's model treats any write-write or
        read-write overlap between reordered epochs as hazardous, so we
        report them all.
        """
        found: list[Hazard] = []
        by_target: dict[int, list[OpRecord]] = {}
        for rec in self.records:
            by_target.setdefault(rec.target, []).append(rec)
        for recs in by_target.values():
            for i, a in enumerate(recs):
                for b in recs[i + 1 :]:
                    if a.epoch_uid == b.epoch_uid:
                        continue
                    if not (a.writes or b.writes):
                        continue
                    # Only pairs that were actually concurrent.
                    if (
                        b.epoch_uid not in a.concurrent_with
                        and a.epoch_uid not in b.concurrent_with
                    ):
                        continue
                    if a.start < b.end and b.start < a.end:
                        found.append(Hazard(a, b))
        return found

    def clear(self) -> None:
        """Drop recorded ops."""
        self.records.clear()
