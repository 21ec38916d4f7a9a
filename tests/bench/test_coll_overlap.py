"""The ``coll_overlap`` figure: registration, the overlap gate, and
exact agreement with the committed baseline."""

import json
from pathlib import Path

import pytest

from repro.bench import FIGURES
from repro.bench.coll_overlap import SHAPES, WORK_US, INVOCATIONS

BASELINE = Path(__file__).resolve().parents[2] / "BENCH_seed.json"


@pytest.fixture(scope="module")
def figure():
    fig = FIGURES["coll_overlap"]
    return fig.title, fig.columns, fig.build(), fig.unit


def test_registered_everywhere():
    # Deterministic virtual-time data: the baseline check holds it exact.
    assert FIGURES["coll_overlap"].tolerance == 0.0


def test_shape_of_figure(figure):
    _, columns, rows, unit = figure
    assert columns == SHAPES
    assert unit == "µs"
    assert set(rows) == {"MVAPICH", "New", "New nonblocking", "Signal"}
    floor = INVOCATIONS * WORK_US
    for cells in rows.values():
        for shape in SHAPES:
            assert cells[shape] >= floor  # compute alone sets the floor


def test_nonblocking_overlap_beats_blocking(figure):
    """The figure's headline: under the nonblocking drive the interior
    compute overlaps the epoch, so the persistent-nonblocking series
    finish strictly faster than the blocking ones — on the contended
    fan-in shape above all."""
    _, _, rows, _ = figure
    for shape in ("fanin",) + SHAPES:
        blocking = min(rows["MVAPICH"][shape], rows["New"][shape])
        for series in ("New nonblocking", "Signal"):
            assert rows[series][shape] < blocking, (
                f"{series} did not overlap on {shape!r}: "
                f"{rows[series][shape]} >= {blocking}")


def test_matches_committed_baseline(figure):
    """Bit-exact agreement with BENCH_seed.json (tolerance 0)."""
    _, columns, rows, _ = figure
    doc = json.loads(BASELINE.read_text())
    (fig,) = [f for f in doc["figures"] if f["figure"] == "coll_overlap"]
    baseline = {r["series"]: r["values"] for r in fig["rows"]}
    assert tuple(fig["columns"]) == columns
    for series, cells in rows.items():
        for shape in columns:
            assert baseline[series][shape] == cells[shape]
