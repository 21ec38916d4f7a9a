"""The paper's claims for every §VIII-A microbenchmark figure (Figs. 2-11).

These are the EXPERIMENTS.md acceptance checks: absolute numbers are
model-dependent, the *shapes* (who waits, what overlaps, who wins) are
the paper's claims.  Rows come from the figure registry
(``repro.bench.registry`` — the same ``Figure.build()`` that
``python -m repro.bench figNN`` prints and ``BENCH_seed.json`` holds);
the claims are one class per figure, keyed by ``figure``, and
``test_every_micro_figure_has_claims`` keeps the two tables in step.
"""

import re

import pytest

from repro.bench import FIGURES, SERIES
from repro.bench.figures import (
    SIZES_4B_TO_1MB,
    fig03_late_complete,
    fig05_wait_at_fence,
)

MV, NEW, NB, SIG = (s.name for s in SERIES)
DELAY = 1000.0
PUT_1MB = 345.0  # calibrated transfer incl. handshakes


class _Claims:
    """Claims about one registry figure; ``rows`` is its built table."""

    figure: str

    @pytest.fixture(scope="class")
    def rows(self, request):
        return FIGURES[request.cls.figure].build()


def test_every_micro_figure_has_claims():
    micro = {name for name in FIGURES if re.fullmatch(r"fig\d\d", name)}
    assert micro == {f"fig{n:02d}" for n in range(2, 12)}
    assert {cls.figure for cls in _Claims.__subclasses__()} == micro


class TestFig02LatePost(_Claims):
    figure = "fig02"

    def test_access_epoch_cannot_avoid_delay(self, rows):
        """'The delay of the Late Post cannot be avoided by the
        origin-side epoch': ~1340 µs for every series."""
        for series, r in rows.items():
            assert r["access_epoch"] == pytest.approx(DELAY + PUT_1MB, rel=0.05), series

    def test_blocking_series_serialize(self, rows):
        for name in (MV, NEW):
            r = rows[name]
            assert r["cumulative"] == pytest.approx(
                r["access_epoch"] + r["two_sided"], rel=0.02
            )

    def test_nonblocking_overlaps_subsequent_activity(self, rows):
        r = rows[NB]
        assert r["two_sided"] == pytest.approx(PUT_1MB, rel=0.05)
        assert r["two_sided"] < 0.3 * rows[NEW]["cumulative"]
        assert r["cumulative"] == pytest.approx(r["access_epoch"], rel=0.02)


class TestFig03LateComplete(_Claims):
    figure = "fig03"

    def test_blocking_series_propagate_delay(self, rows):
        assert rows[MV]["1MB"] > DELAY
        assert rows[NEW]["1MB"] > 0.95 * DELAY
        for col in FIGURES["fig03"].columns:
            assert rows[MV][col] > 950.0
            assert rows[NEW][col] > 950.0

    def test_nonblocking_target_waits_only_for_transfers(self, rows):
        assert rows[NB]["1MB"] < 1.3 * PUT_1MB
        for col in FIGURES["fig03"].columns:
            assert rows[NB][col] < 450.0
        # Pure transfer: the nonblocking target epoch grows with size.
        assert rows[NB]["1MB"] > rows[NB]["4B"]

    def test_small_messages_same_story(self, rows):
        assert rows[NB]["4B"] < 50.0
        assert rows[MV]["4B"] > 0.9 * DELAY


class TestFig04EarlyFence(_Claims):
    figure = "fig04"

    def test_nonblocking_overlaps_work_with_epoch(self, rows):
        for col in FIGURES["fig04"].columns:
            assert rows[NB][col] == pytest.approx(DELAY, rel=0.05)

    def test_blocking_serializes(self, rows):
        for name in (MV, NEW):
            assert rows[name]["1MB"] > DELAY + 0.9 * PUT_1MB
            for col in FIGURES["fig04"].columns:
                assert rows[name][col] > 1050.0
        # Blocking cumulative grows with message size; nonblocking doesn't.
        assert rows[NEW]["1MB"] > rows[NEW]["256KB"]


class TestFig05WaitAtFence(_Claims):
    figure = "fig05"

    def test_blocking_propagates_origin_delay(self, rows):
        for name in (MV, NEW):
            assert rows[name]["1MB"] > 0.95 * DELAY
            for col in FIGURES["fig05"].columns:
                assert rows[name][col] > 950.0

    def test_nonblocking_confines_delay(self, rows):
        assert rows[NB]["1MB"] < 1.3 * PUT_1MB
        for col in FIGURES["fig05"].columns:
            assert rows[NB][col] < 450.0


@pytest.mark.parametrize("scenario", [fig03_late_complete, fig05_wait_at_fence])
def test_target_epoch_claims_hold_along_the_paper_size_axis(scenario):
    """Figs. 3 and 5 plot 4 B - 1 MB; the registry tables keep three of
    those sizes, the claims hold at all ten."""
    mv, new, nb, _sig = SERIES
    for nbytes in SIZES_4B_TO_1MB:
        assert scenario(mv, nbytes)["target_epoch"] > 950.0
        assert scenario(new, nbytes)["target_epoch"] > 950.0
        assert scenario(nb, nbytes)["target_epoch"] < 450.0


class TestFig06LateUnlock(_Claims):
    """Bounds in calibrated transfers: 1.3 x 345 = 448.5, 1000 + 0.9 x
    345 = 1310.5 and 2.3 x 345 = 793.5 are each at least as tight as
    the paper's round ~450 / ~1300 / ~800."""

    figure = "fig06"

    def test_mvapich_lazy_immune_but_no_overlap(self, rows):
        r = rows[MV]
        assert r["second_lock"] < 1.3 * PUT_1MB       # immune to Late Unlock
        assert r["first_lock"] > DELAY + 0.9 * PUT_1MB  # but no overlap

    def test_new_blocking_overlaps_but_inflicts_late_unlock(self, rows):
        r = rows[NEW]
        assert r["first_lock"] == pytest.approx(DELAY, rel=0.05)  # overlap
        assert r["second_lock"] > DELAY + 0.9 * PUT_1MB           # Late Unlock

    def test_nonblocking_gets_both(self, rows):
        r = rows[NB]
        assert r["first_lock"] == pytest.approx(DELAY, rel=0.05)
        # O1 pays only both transfers, not the 1000 µs work.
        assert r["second_lock"] < 2.3 * PUT_1MB


class TestFig07AaarGats(_Claims):
    figure = "fig07"

    def test_flag_confines_the_delay_to_the_late_epoch(self, rows):
        off, on = rows["off"], rows["on"]
        assert off["target_T1"] > 1300.0          # delay propagated in chain
        assert on["target_T1"] < 450.0            # confined to the T0 epoch
        assert on["origin_cumulative"] == pytest.approx(1340.0, rel=0.05)
        assert on["origin_cumulative"] < off["origin_cumulative"]


class TestFig08AaarLock(_Claims):
    figure = "fig08"

    def test_second_lock_epoch_completes_out_of_order(self, rows):
        off, on = rows["off"], rows["on"]
        assert on["o1_cumulative"] == pytest.approx(1340.0, rel=0.06)
        assert off["o1_cumulative"] > on["o1_cumulative"] + 250.0


class TestFig09Aaer(_Claims):
    figure = "fig09"

    def test_access_progresses_past_the_active_exposure(self, rows):
        off, on = rows["off"], rows["on"]
        assert off["target_P1"] > 1300.0
        assert on["target_P1"] < 450.0
        assert on["p2_cumulative"] < off["p2_cumulative"]


class TestFig10Eaer(_Claims):
    figure = "fig10"

    def test_second_exposure_activates_past_the_first(self, rows):
        off, on = rows["off"], rows["on"]
        assert off["origin_O1"] > 1300.0
        assert on["origin_O1"] < 450.0
        assert on["target_cumulative"] < off["target_cumulative"]


class TestFig11Eaar(_Claims):
    figure = "fig11"

    def test_exposure_activates_past_the_waiting_access(self, rows):
        off, on = rows["off"], rows["on"]
        assert off["origin_P1"] > 1300.0
        assert on["origin_P1"] < 450.0
        assert on["p2_cumulative"] < off["p2_cumulative"]
