"""7-step RMA progress-engine profiler (§VII-D).

One profiler per runtime, shared by every rank's engine: the report is
about where the *job's* progress work goes, aggregated over ranks.  Per
step it accumulates

- ``invocations`` — how many times the step ran (or, for the
  event-driven step 1, how many completion events were verified);
- ``work`` — items processed: ops posted (steps 2/4), epochs completed
  or activated (steps 3/7), notifications drained (step 5), lock
  backlog entries (step 6), op completion events (step 1);
- ``wall_s`` — host wall-clock seconds spent inside the step
  (``time.perf_counter`` deltas; the only non-deterministic field);
- ``last_virtual_us`` — virtual time of the step's last execution.

Step 1 (completion verification) is event-driven in this simulation —
op completion callbacks do the verifying — so the engines attribute
those callbacks to step 1 via :meth:`EngineProfiler.tally` instead of
timing a loop body.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simtime import Simulator

__all__ = ["PROGRESS_STEPS", "StepStat", "EngineProfiler"]

#: Step number -> descriptive name, following the §VII-D loop order.
PROGRESS_STEPS: dict[int, str] = {
    1: "completion verification",
    2: "post internode transfers",
    3: "complete + activate epochs",
    4: "post intranode transfers",
    5: "drain notification FIFO",
    6: "process lock backlog",
    7: "complete + activate (post-batch)",
}


class StepStat:
    """Accumulated profile of one progress-engine step."""

    __slots__ = ("invocations", "work", "wall_s", "last_virtual_us")

    def __init__(self) -> None:
        self.invocations = 0
        self.work = 0
        self.wall_s = 0.0
        self.last_virtual_us = 0.0


class EngineProfiler:
    """Per-runtime 7-step profile, fed by the engines' sweep loops."""

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.steps: dict[int, StepStat] = {n: StepStat() for n in PROGRESS_STEPS}

    def lap(self, step: int, work: int, since: float) -> float:
        """Account one timed execution of ``step`` that began at the
        ``perf_counter()`` reading ``since``; returns the reading it
        ended at — the next step's start."""
        now = perf_counter()
        st = self.steps[step]
        st.invocations += 1
        st.work += work
        st.wall_s += now - since
        st.last_virtual_us = self.sim.now
        return now

    def tally(self, step: int, work: int = 1) -> None:
        """Attribute event-driven work to ``step`` (no wall timing)."""
        st = self.steps[step]
        st.invocations += 1
        st.work += work
        st.last_virtual_us = self.sim.now

    def summary(self) -> dict:
        """JSON-stable per-step stats keyed by step number (as str, for
        JSON round-trip stability)."""
        return {
            "steps": {
                str(n): {
                    "name": PROGRESS_STEPS[n],
                    "invocations": st.invocations,
                    "work": st.work,
                    "wall_ms": st.wall_s * 1e3,
                    "last_virtual_us": st.last_virtual_us,
                }
                for n, st in self.steps.items()
            },
        }
