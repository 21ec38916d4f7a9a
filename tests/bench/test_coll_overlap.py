"""The ``coll_overlap`` figure: registration, the overlap gate, and
exact agreement with the committed baseline."""

import pytest

from repro.bench import FIGURES
from repro.bench.coll_overlap import SHAPES, WORK_US, INVOCATIONS
from repro.bench.registry import figure_doc


@pytest.fixture(scope="module")
def figure(built):
    fig = FIGURES["coll_overlap"]
    return fig.title, fig.columns, built(fig.name), fig.unit


def test_registered_everywhere(committed):
    # In the registry, and in the committed baseline that the check
    # holds every figure to exactly.
    assert FIGURES["coll_overlap"].columns == SHAPES
    assert committed["coll_overlap"]["columns"] == list(SHAPES)


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


def test_matches_committed_baseline(figure, committed):
    """Bit-exact agreement with BENCH_seed.json."""
    _, _, rows, _ = figure
    assert figure_doc(FIGURES["coll_overlap"], rows) == committed["coll_overlap"]
