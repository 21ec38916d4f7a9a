"""Fence-epoch halo exchange over a 1-D ring (example workload).

A classic stencil skeleton: each rank owns a strip of cells plus two
ghost cells; every iteration it puts its boundary cells into its
neighbors' ghost slots inside a fence epoch, then relaxes its strip
(Jacobi averaging).  Exercises fence epochs (blocking and ``ifence``)
under a realistic bulk-synchronous pattern, and demonstrates the Early
Fence mitigation: with ``ifence``, the relaxation of *interior* cells
(which needs no ghost data) overlaps the epoch's completion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mpi.runtime import MPIRuntime
from .config import BaseAppConfig

__all__ = ["HaloConfig", "HaloResult", "run_halo"]

_F8 = np.float64
_ITEM = 8

# Window layout (in cells): [left ghost | strip ... | right ghost]


@dataclass(frozen=True)
class HaloConfig(BaseAppConfig):
    """Halo-exchange parameters (runtime knobs on :class:`BaseAppConfig`)."""

    nranks: int
    cells_per_rank: int = 64
    iterations: int = 10
    #: Extra µs of interior compute per iteration (overlap fodder).
    interior_work_us: float = 0.0


@dataclass
class HaloResult:
    """Final field and timing."""

    elapsed_us: float
    field: np.ndarray  # concatenated strips, shape (nranks*cells,)
    #: The finished runtime (for ``metrics_summary()`` / trace export);
    #: ``None`` unless the config asked for metrics or the causal recorder.
    runtime: MPIRuntime | None = None


def reference_halo(initial: np.ndarray, nranks: int, cells: int, iterations: int) -> np.ndarray:
    """Sequential reference: the same Jacobi relaxation with periodic
    boundaries, for verifying the parallel run."""
    field = initial.astype(_F8).copy()
    for _ in range(iterations):
        field = 0.5 * field + 0.25 * (np.roll(field, 1) + np.roll(field, -1))
    return field


def run_halo(cfg: HaloConfig, initial: np.ndarray | None = None) -> HaloResult:
    """Run the stencil; returns the final concatenated field."""
    total = cfg.nranks * cfg.cells_per_rank
    if initial is None:
        initial = np.sin(np.linspace(0, 2 * np.pi, total, endpoint=False))
    if initial.shape != (total,):
        raise ValueError(f"initial field must have shape ({total},)")

    stats: dict = {}

    def app(proc):
        n, cells = proc.size, cfg.cells_per_rank
        rank = proc.rank
        win = yield from proc.win_allocate((cells + 2) * _ITEM,
                                           info=cfg.checker_info() or None)
        strip = initial[rank * cells : (rank + 1) * cells].astype(_F8).copy()
        left, right = (rank - 1) % n, (rank + 1) % n
        yield from proc.barrier()
        t0 = proc.wtime()
        yield from win.fence()
        for _ in range(cfg.iterations):
            # Send boundaries into neighbors' ghost slots.
            win.put(strip[:1], left, (cells + 1) * _ITEM)   # my left cell -> left's right ghost
            win.put(strip[-1:], right, 0)                   # my right cell -> right's left ghost
            if cfg.nonblocking:
                req = win.ifence()
                if cfg.interior_work_us:
                    yield from proc.compute(cfg.interior_work_us)
                yield from req.wait()
            else:
                if cfg.interior_work_us:
                    yield from proc.compute(cfg.interior_work_us)
                yield from win.fence()
            ghosts = win.view(_F8)
            lg, rg = ghosts[0], ghosts[cells + 1]
            new = 0.5 * strip.copy()
            new[1:] += 0.25 * strip[:-1]
            new[0] += 0.25 * lg
            new[:-1] += 0.25 * strip[1:]
            new[-1] += 0.25 * rg
            strip = new
        yield from win.fence(assert_=2)  # MODE_NOSUCCEED: last fence
        yield from proc.barrier()
        stats[rank] = proc.wtime() - t0
        return strip

    runtime = cfg.make_runtime()
    strips = runtime.run(app)
    field = np.concatenate(strips)
    return HaloResult(elapsed_us=max(stats.values()), field=field,
                      runtime=cfg.keep_runtime(runtime))
