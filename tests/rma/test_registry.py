"""The engine registry: single source of truth for engine names."""

import pytest

import repro.rma.engine
from repro.mpi.runtime import MPIRuntime
from repro.rma.engine.adaptive import AdaptiveEngine
from repro.rma.engine.mvapich import MvapichEngine
from repro.rma.engine.nonblocking import NonblockingEngine
from repro.rma.engine.registry import (
    DEFAULT_ENGINE,
    ENGINES,
    canonical_engine,
    engine_factory,
)
from repro.rma.engine.signal import SignalEngine


class TestCanonicalNames:
    def test_every_canonical_name_is_a_fixed_point(self):
        for name in ENGINES:
            assert canonical_engine(name) == name

    def test_default_engine_is_canonical(self):
        assert DEFAULT_ENGINE in ENGINES

    def test_unknown_engine_lists_the_choices(self):
        with pytest.raises(ValueError) as exc:
            canonical_engine("fompi")
        msg = str(exc.value)
        assert "fompi" in msg
        for name in ENGINES:
            assert name in msg

    @pytest.mark.parametrize("old", ["new", "baseline", "counter-signal"])
    def test_names_removed_in_2_0_are_unknown(self, old):
        with pytest.raises(ValueError, match="unknown engine"):
            canonical_engine(old)


class TestFactories:
    def test_factory_table(self):
        assert engine_factory("nonblocking") is NonblockingEngine
        assert engine_factory("mvapich") is MvapichEngine
        assert engine_factory("adaptive") is AdaptiveEngine
        assert engine_factory("signal") is SignalEngine

    @pytest.mark.parametrize("name", ENGINES)
    def test_every_engine_is_the_one_progress_class(self, name):
        assert issubclass(engine_factory(name), NonblockingEngine)

    def test_package_exports_no_base_class(self):
        """The exported classes are exactly the registered engines: no
        abstract base, no alias."""
        pkg = repro.rma.engine
        exported = {getattr(pkg, n) for n in pkg.__all__ if isinstance(getattr(pkg, n), type)}
        assert exported == {engine_factory(name) for name in ENGINES}

    def test_factory_rejects_unknown(self):
        with pytest.raises(ValueError):
            engine_factory("openmpi")


class TestRuntimeIntegration:
    def test_runtime_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            MPIRuntime(2, engine="no-such-engine")

    def test_runtime_default_is_registry_default(self):
        assert MPIRuntime(2).engine_name == DEFAULT_ENGINE
