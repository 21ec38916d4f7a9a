"""Harness utilities: the series table the figures sweep, and table rendering."""

import pytest

from repro.bench import format_table
from repro.bench.calibration import default_model, expected_put_us
from repro.workloads import SERIES


class TestSeries:
    def test_paper_series_plus_signal(self):
        names = [s.label for s in SERIES]
        assert names == ["MVAPICH", "New", "New nonblocking", "Signal"]

    def test_engines(self):
        assert SERIES[0].engine == "mvapich"
        assert SERIES[1].engine == "nonblocking" and not SERIES[1].nonblocking
        assert SERIES[2].nonblocking
        assert SERIES[3].engine == "signal" and SERIES[3].nonblocking

    def test_label(self):
        assert SERIES[0].label == "MVAPICH"


class TestTable:
    def test_renders_rows_and_columns(self):
        text = format_table(
            "demo",
            ["4B", "1MB"],
            {"MVAPICH": {"4B": 1.5, "1MB": 340.2}, "New": {"4B": 1.4}},
        )
        assert "demo" in text
        assert "MVAPICH" in text
        assert "340.2" in text
        assert "-" in text  # missing cell

    def test_numeric_columns(self):
        text = format_table("t", [64, 128], {"s": {64: 1.0, 128: 2.0}})
        assert "1.0" in text and "2.0" in text


class TestCalibration:
    def test_expected_put_matches_paper(self):
        assert expected_put_us(1 << 20) == pytest.approx(340.0, rel=0.01)

    def test_default_model_stable(self):
        assert default_model() == default_model()
