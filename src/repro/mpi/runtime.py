"""Job runtime: builds the simulated cluster and launches rank processes.

:class:`MPIRuntime` wires together the DES kernel, the fabric, per-rank
middleware and the selected RMA engine, then runs one generator process
per rank::

    runtime = MPIRuntime(nranks=4, engine="nonblocking")
    results = runtime.run(app)            # app(proc) on every rank

Engines
-------
``"nonblocking"``
    The paper's redesigned RMA stack (deferred epochs, ω-triple
    matching, the 7-step progress loop).  Serves both the "New"
    (blocking calls) and "New nonblocking" (i* calls) test series.
``"mvapich"``
    The MVAPICH 2-1.9-style baseline: lazy lock acquisition,
    all-targets-ready gating at epoch close, blocking-only
    synchronization.
``"adaptive"``
    The baseline plus the per-target lazy/eager lock switching of the
    paper's reference [12] (see :mod:`repro.rma.engine.adaptive`).
``"signal"``
    The counter-signal engine: the nonblocking policy core over
    mscclpp-style per-pair monotonic epoch counters delivered as
    one-sided 8-byte writes — no ω-triples, no grant packets — plus the
    foMPI-style notified-access surface (``put_notify``/``get_notify``/
    ``notify_wait``; see :mod:`repro.rma.engine.signal`).

The name table lives in :mod:`repro.rma.engine.registry`; names resolve
through :func:`~repro.rma.engine.registry.canonical_engine`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator

from ..network.fabric import Fabric
from ..network.model import NetworkModel
from ..network.topology import ClusterTopology
from ..simtime import Simulator
from .info import Info
from .middleware import RankMiddleware
from .process import MPIProcess

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults import FaultPlan
    from ..rma.window import Window, WindowGroup

__all__ = ["MPIRuntime", "ENGINES"]

AppFn = Callable[..., Generator[Any, Any, Any]]

#: Canonical engine names, re-exported from the registry (the single
#: source of truth; kept here because ``repro.mpi`` re-exports it).
from ..rma.engine.registry import (  # noqa: E402
    DEFAULT_ENGINE,
    ENGINES,
    canonical_engine,
    engine_factory as _engine_factory,
)


class MPIRuntime:
    """One simulated MPI job."""

    def __init__(
        self,
        nranks: int,
        cores_per_node: int = 8,
        model: NetworkModel | None = None,
        engine: str = DEFAULT_ENGINE,
        metrics: bool = False,
        causal: bool = False,
        fault_plan: "FaultPlan | None" = None,
        exploration: Any = None,
    ):
        # Schedule exploration first: the kernel itself consults the
        # context's perturbation policy, and every layer below reads
        # ``runtime.exploration`` at construction (duck-typed — see
        # repro.explore.context.ExplorationContext; None = off).
        self.exploration = exploration
        policy = exploration.policy if exploration is not None else None
        self.sim = Simulator(policy=policy)
        self.topology = ClusterTopology(nranks, cores_per_node)
        # Telemetry first: every layer below captures these references at
        # construction (None when disabled: one attribute check per event).
        # ``metrics=True`` arms the §VII-D step profiler and the causal
        # span recorder the summary is folded from.
        self.profiler: "EngineProfiler | None" = None
        if metrics:
            from ..obs import EngineProfiler

            self.profiler = EngineProfiler(self.sim)
        # The recorder is threaded into the kernel too, so context
        # crosses schedule()/fire boundaries.
        self.causal: "CausalRecorder | None" = None
        if causal or metrics:
            from ..obs.causal import CausalRecorder

            self.causal = self.sim.causal = CausalRecorder(self.sim)
        # A fault plan arms the injector and the reliability layer that
        # repairs it, retrying by the plan's own policy.
        injector = rel = None
        if fault_plan is not None:
            from ..faults import FaultInjector, ReliabilityLayer

            injector = FaultInjector(self.sim, fault_plan)
            rel = ReliabilityLayer(self.sim, fault_plan.retry)
        self.fault_plan = fault_plan
        self.fabric = Fabric(
            self.sim,
            self.topology,
            model,
            injector=injector,
            reliability=rel,
        )
        if injector is not None:
            injector.install(self.fabric)
        if self.causal is not None:
            self.fabric.causal = self.causal
            self.fabric.flow.causal = self.causal
            if rel is not None:
                rel.causal = self.causal
        self.engine_name = canonical_engine(engine)
        factory = _engine_factory(engine)
        self.middlewares = [RankMiddleware(self.sim, self.fabric, r) for r in range(nranks)]
        self.engines = []
        for r in range(nranks):
            eng = factory(self, r)
            self.middlewares[r].attach_rma_engine(eng)
            self.engines.append(eng)
        self.processes = [MPIProcess(self, r) for r in range(nranks)]
        #: Window groups in creation order.
        self.window_groups: list["WindowGroup"] = []
        #: Per-rank count of win_allocate calls (for collective matching).
        self._win_calls = [0] * nranks
        if exploration is not None:
            exploration.attach_runtime(self)

    # -- introspection -----------------------------------------------------
    @property
    def nranks(self) -> int:
        """Number of ranks in the job."""
        return self.topology.nranks

    @property
    def now(self) -> float:
        """Current virtual time (µs)."""
        return self.sim.now

    # -- window creation -----------------------------------------------------
    def create_window(
        self, rank: int, nbytes: int, info: "Info | dict | None", name: str
    ) -> "Window":
        """Per-rank half of the collective window allocation (the barrier
        half lives in :meth:`MPIProcess.win_allocate`)."""
        from ..rma.window import Window, WindowGroup

        index = self._win_calls[rank]
        self._win_calls[rank] += 1
        if index == len(self.window_groups):
            info = Info(info) if not isinstance(info, Info) else info
            info = self._apply_exploration_info(info)
            group = WindowGroup(self, index, name or f"win{index}", info)
            self.window_groups.append(group)
        group = self.window_groups[index]
        win = Window(group, rank, nbytes)
        group.attach(win)
        self.engines[rank].register_window(win)
        return win

    def _apply_exploration_info(self, info: Info) -> Info:
        """Arm the semantics checker in report mode on windows of an
        explored run whose info leaves the checker key unset (the
        checker verdict is an outcome-digest component)."""
        if self.exploration is None:
            return info
        from ..rma.checker import SEMANTICS_CHECK_INFO_KEY, SEMANTICS_MODE_INFO_KEY

        if SEMANTICS_CHECK_INFO_KEY in info:
            return info
        merged = dict(info)
        merged[SEMANTICS_CHECK_INFO_KEY] = "1"
        merged[SEMANTICS_MODE_INFO_KEY] = "report"
        return Info(merged)

    # -- launching ---------------------------------------------------------
    def run(self, app: AppFn, *args: Any, until: float | None = None) -> list[Any]:
        """Run ``app(proc, *args)`` on every rank to completion; returns
        the per-rank return values."""
        procs = [self.sim.process(app(p, *args), name=("rank%d", p.rank)) for p in self.processes]
        self.sim.run(until=until)
        return [p.value for p in procs]

    def run_mixed(self, apps: dict[int, AppFn], until: float | None = None) -> dict[int, Any]:
        """Run a different generator function per rank (microbenchmark
        style: origin/target/bystander roles)."""
        procs = {r: self.sim.process(fn(self.processes[r]), name=("rank%d", r))
                 for r, fn in apps.items()}
        self.sim.run(until=until)
        return {r: p.value for r, p in procs.items()}

    @property
    def metrics(self) -> bool:
        """Whether the runtime was built with ``metrics=True``."""
        return self.profiler is not None

    def stats(self):
        """Snapshot fabric/engine counters (see :mod:`repro.mpi.stats`)."""
        from .stats import collect_stats

        return collect_stats(self)

    def metrics_summary(self) -> dict | None:
        """JSON-stable snapshot of the :mod:`repro.obs` telemetry, or
        ``None`` when the runtime was built without ``metrics=True``;
        folded after the fact by :func:`repro.obs.metrics.fold_metrics`."""
        if self.profiler is None:
            return None
        from ..obs.metrics import fold_metrics

        return fold_metrics(self)
