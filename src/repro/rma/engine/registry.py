"""Single source of truth for engine names.

Every surface that names an engine — ``MPIRuntime(engine=...)``, the
bench series table, the explore variant table, app configs, CLI
``choices`` — resolves through this module, so adding an engine is a
one-line change here plus a class.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .nonblocking import NonblockingEngine

__all__ = [
    "DEFAULT_ENGINE",
    "ENGINES",
    "canonical_engine",
    "engine_factory",
]

#: Canonical engine names, in presentation order (docs / bench tables).
ENGINES: tuple[str, ...] = ("nonblocking", "mvapich", "adaptive", "signal")

DEFAULT_ENGINE = "nonblocking"


def canonical_engine(name: str) -> str:
    """Check that ``name`` is an engine name and return it; unknown
    names raise :class:`ValueError` listing the valid choices."""
    if name in ENGINES:
        return name
    raise ValueError(
        f"unknown engine {name!r}; choose from {', '.join(sorted(ENGINES))}"
    )


def engine_factory(name: str) -> type["NonblockingEngine"]:
    """The engine class for an engine name.

    Imports lazily: :mod:`repro.rma.engine` imports the engine modules
    eagerly, so importing them at module scope here would cycle.
    """
    canonical = canonical_engine(name)
    if canonical == "nonblocking":
        from .nonblocking import NonblockingEngine

        return NonblockingEngine
    if canonical == "mvapich":
        from .mvapich import MvapichEngine

        return MvapichEngine
    if canonical == "adaptive":
        from .adaptive import AdaptiveEngine

        return AdaptiveEngine
    from .signal import SignalEngine

    return SignalEngine
