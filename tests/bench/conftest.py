"""Shared by the bench tests: one build per registry figure per session
(claims, baseline equality and the JSON round trip read the same rows)
and the committed baseline's figure objects."""

import json
from functools import cache
from pathlib import Path

import pytest

from repro.bench import FIGURES

BASELINE = Path(__file__).resolve().parents[2] / "BENCH_seed.json"


@pytest.fixture(scope="session")
def built():
    """``built(name)``: the rows of registry figure ``name``."""
    return cache(lambda name: FIGURES[name].build())


@pytest.fixture(scope="session")
def committed():
    """Figure name -> its object in ``BENCH_seed.json``."""
    return {f["figure"]: f for f in json.loads(BASELINE.read_text())["figures"]}
