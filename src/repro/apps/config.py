"""One app-config surface for every paper workload.

Every application in :mod:`repro.apps` used to carry its own copy of
the same runtime-construction boilerplate: an ``engine`` string, the
``nonblocking`` drive flag, the observability switches and an identical
``MPIRuntime(...)`` call.  :class:`BaseAppConfig` is the single home for
that surface; the per-app configs inherit it and only declare what is
genuinely theirs (problem sizes, seeds, per-app cost knobs).

All base fields are keyword-only, so subclasses keep their existing
positional constructor signatures (``HaloConfig(4)`` still works) and
every historical keyword argument keeps its name.

Subclasses must provide ``nranks`` — either as a field
(:class:`~repro.apps.halo.HaloConfig`) or as a derived property
(:class:`~repro.apps.stencil2d.Stencil2DConfig`'s ``pr * pc``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..mpi.runtime import DEFAULT_ENGINE, MPIRuntime
from ..network.model import NetworkModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults import FaultPlan

__all__ = ["BaseAppConfig"]


@dataclass(frozen=True, kw_only=True)
class BaseAppConfig:
    """Fields shared by every app workload config.

    The runtime-facing knobs (engine, topology, fault plan, telemetry)
    live here once; :meth:`make_runtime` turns them into a wired
    :class:`~repro.mpi.runtime.MPIRuntime`.
    """

    engine: str = DEFAULT_ENGINE
    #: Drive epochs with the §V ``i*`` routines (bounded pipelines).
    nonblocking: bool = False
    cores_per_node: int = 8
    model: NetworkModel | None = None
    #: Chaos schedule applied to the fabric (arms the reliability layer).
    fault_plan: "FaultPlan | None" = None
    #: Run the RMA semantics checker on the app's windows
    #: ("raise"/"report"; see :meth:`checker_info`).
    semantics_check: str | None = None
    #: Collect :mod:`repro.obs` telemetry (keeps the runtime on the result).
    metrics: bool = False
    #: Record causal spans: the timeline the pattern detector, the
    #: Chrome trace and the critical path read (:mod:`repro.obs.causal`).
    causal: bool = False
    #: Schedule-exploration context (see :mod:`repro.explore`).
    exploration: Any = None

    def make_runtime(self) -> MPIRuntime:
        """Build the runtime this config describes (the one copy of the
        boilerplate formerly repeated in every ``run_*`` function)."""
        return MPIRuntime(
            self.nranks,
            cores_per_node=self.cores_per_node,
            engine=self.engine,
            model=self.model,
            fault_plan=self.fault_plan,
            metrics=self.metrics,
            causal=self.causal,
            exploration=self.exploration,
        )

    def keep_runtime(self, runtime: MPIRuntime) -> MPIRuntime | None:
        """The runtime to hand back on the result object: only kept when
        some telemetry was requested (otherwise results stay light)."""
        return runtime if (self.metrics or self.causal) else None

    def checker_info(self) -> dict:
        """Window-info entries arming the semantics checker (empty when
        :attr:`semantics_check` is unset); merge into app window info."""
        if not self.semantics_check:
            return {}
        from ..rma.checker import SEMANTICS_CHECK_INFO_KEY, SEMANTICS_MODE_INFO_KEY

        return {
            SEMANTICS_CHECK_INFO_KEY: 1,
            SEMANTICS_MODE_INFO_KEY: self.semantics_check,
        }
