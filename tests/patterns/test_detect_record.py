"""The pattern detector's verdict on Figs. 2–6, pinned byte for byte.

Figs. 2–6 are each named after a §III pattern.  This module runs each of
them on the four test series with the causal recorder armed, runs
:func:`~repro.patterns.detect_patterns` on the job and pins every
instance ``(pattern, rank, win, epoch, start, end)`` by sha256.  The
scenario builders take no observer switch, so the record substitutes
``repro.bench.figures._runtime`` for one that arms the recorder.

A change that *means* to move the record regenerates :data:`GOLDEN`
and says why in CHANGES.md.  To see the record::

    PYTHONPATH=src python -m tests.patterns.test_detect_record
"""

from __future__ import annotations

import hashlib
import json
from unittest import mock

import pytest

from repro.bench import figures
from repro.bench.calibration import default_model
from repro.mpi.runtime import MPIRuntime
from repro.patterns import detect_patterns
from repro.workloads import SERIES
from tests.obs.test_observer_golden import _fresh_uids

GOLDEN = "d47fc7fb7fb5b3161022fd1eb519101078ed03eef4977ced613c6d6e3472f2ce"

MB = 1 << 20

#: (figure, scenario): Figs. 3–5 at 1 MB, the size of Figs. 2 and 6.
_FIGURES = (
    ("fig02_late_post", figures.fig02_late_post),
    ("fig03_late_complete", lambda s: figures.fig03_late_complete(s, MB)),
    ("fig04_early_fence", lambda s: figures.fig04_early_fence(s, MB)),
    ("fig05_wait_at_fence", lambda s: figures.fig05_wait_at_fence(s, MB)),
    ("fig06_late_unlock", figures.fig06_late_unlock),
)


def detector_record() -> dict[str, list[list]]:
    """``figure/series`` -> the instances the detector finds in that job."""
    made: list[MPIRuntime] = []

    def armed(series_engine, nranks, model=None, cores_per_node=1):
        rt = MPIRuntime(nranks, cores_per_node=cores_per_node, engine=series_engine,
                        model=model or default_model(), causal=True)
        made.append(rt)
        return rt

    record = {}
    with mock.patch.object(figures, "_runtime", armed):
        for name, scenario in _FIGURES:
            for series in SERIES:
                made.clear()
                with _fresh_uids():
                    scenario(series)
                (rt,) = made
                record[f"{name}/{series.name}"] = [
                    [p.pattern, p.rank, p.win, p.epoch, p.start, p.end]
                    for p in detect_patterns(rt.causal)
                ]
    return record


@pytest.fixture(scope="module")
def record():
    return detector_record()


def test_record_is_byte_identical_to_the_golden(record):
    document = json.dumps(record, sort_keys=True)
    assert hashlib.sha256(document.encode()).hexdigest() == GOLDEN


@pytest.mark.parametrize("cell, pattern, us", [
    ("fig02_late_post/mvapich", "late_post", 1002.0),
    ("fig02_late_post/new", "late_post", 1002.0),
    ("fig05_wait_at_fence/new", "wait_at_fence", 640.8),
    ("fig06_late_unlock/new", "late_unlock", 638.8),
])
def test_record_is_not_vacuous(record, cell, pattern, us):
    found = sum(end - start for p, _r, _w, _e, start, end in record[cell] if p == pattern)
    assert found == pytest.approx(us, abs=0.05)


if __name__ == "__main__":
    print(json.dumps(detector_record(), indent=1, sort_keys=True))
