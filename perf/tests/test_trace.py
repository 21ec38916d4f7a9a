"""Layer attribution: every module has one layer; shares partition the rep."""

from pathlib import Path

import numpy as np

from perf.trace import LAYERS, layer_of, profile_layers
from repro import MPIRuntime

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def test_every_repro_module_maps_to_exactly_one_layer():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 80
    for path in modules:
        assert layer_of(str(path)) in LAYERS, path


def test_layer_examples():
    assert layer_of(str(SRC / "simtime" / "core.py")) == "simtime"
    assert layer_of(str(SRC / "network" / "fabric.py")) == "network"
    assert layer_of(str(SRC / "rma" / "window.py")) == "rma"
    assert layer_of(str(SRC / "rma" / "engine" / "base.py")) == "rma.engine"
    assert layer_of(str(SRC / "patterns" / "trace.py")) == "obs"
    assert layer_of(str(SRC / "workloads.py")) == "apps"
    assert layer_of(str(SRC.parents[1] / "perf" / "workloads.py")) == "apps"
    assert layer_of(str(SRC.parents[1] / "perf" / "harness.py")) == "other"
    assert layer_of(np.__file__) == "other"
    # A directory merely *named* like a layer outside src/repro is not one.
    assert layer_of("/usr/lib/python3/network/fabric.py") == "other"


def test_shares_sum_to_one_and_land_in_the_layers_that_ran():
    def app(proc):
        win = yield from proc.win_allocate(64)
        yield from win.lock((proc.rank + 1) % proc.size)
        win.put(np.int64([proc.rank]), (proc.rank + 1) % proc.size, 0)
        yield from win.unlock((proc.rank + 1) % proc.size)
        yield from proc.barrier()

    _, layers = profile_layers(lambda: MPIRuntime(4).run(app))
    assert set(layers) == set(LAYERS)
    total = sum(layer["self_s"] for layer in layers.values())
    assert abs(sum(layer["self_s"] / total for layer in layers.values()) - 1.0) <= 1e-9
    for ran in ("simtime", "network", "mpi", "rma", "rma.engine"):
        assert layers[ran]["calls"] > 0, ran
    assert layers["faults"] == {"self_s": 0.0, "calls": 0}
    assert layers["coll"]["calls"] == 0
