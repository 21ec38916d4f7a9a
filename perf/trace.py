"""Layer attribution of a profiled rep.

A function's self time (``tottime``) and call count are attributed to a
layer by the module path of the *callee*; layers are this repository's
modules.  Self time is exclusive of children by construction, so the
per-layer shares partition the profiled rep.
"""

from __future__ import annotations

import cProfile
from pathlib import Path

__all__ = ["LAYERS", "layer_of", "profile_layers"]

LAYERS = ("simtime", "network", "faults", "mpi", "rma", "rma.engine", "coll", "apps",
          "obs", "other")

#: First path component under ``src/repro`` -> layer.  ``rma/engine`` is
#: split off ``rma`` in :func:`layer_of`; anything not listed is ``other``.
_PACKAGE_LAYER = {
    "simtime": "simtime",
    "network": "network",
    "faults": "faults",
    "mpi": "mpi",
    "rma": "rma",
    "coll": "coll",
    "apps": "apps",
    "workloads.py": "apps",
    "bench": "apps",  # generators and harnesses, like perf/workloads.py
    "obs": "obs",
    "patterns": "obs",
}

_PERF_DIR = Path(__file__).resolve().parent
_REPRO_DIR = _PERF_DIR.parent / "src" / "repro"


def layer_of(filename: str) -> str:
    """The layer a source file belongs to (``other`` outside the repo:
    stdlib, numpy, builtins, and this harness)."""
    path = Path(filename).resolve()
    if path == _PERF_DIR / "workloads.py":
        return "apps"  # the benchmark-owned generators
    try:
        parts = path.relative_to(_REPRO_DIR).parts
    except ValueError:
        return "other"
    if parts[:2] == ("rma", "engine"):
        return "rma.engine"
    return _PACKAGE_LAYER.get(parts[0], "other")


def profile_layers(fn):
    """Run ``fn()`` under cProfile; returns ``(result, layers)`` where
    ``layers[layer] = {"self_s": float, "calls": int}``."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    cache: dict[str, str] = {}
    for entry in profiler.getstats():
        code = entry.code
        if isinstance(code, str):  # a builtin: no source file
            layer = "other"
        else:
            layer = cache.get(code.co_filename)
            if layer is None:
                layer = cache[code.co_filename] = layer_of(code.co_filename)
        layers[layer]["self_s"] += entry.inlinetime
        layers[layer]["calls"] += entry.callcount
    return result, layers
