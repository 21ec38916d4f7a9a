"""Calibration of the network model against the paper's testbed numbers.

§VIII states the reference point: "in pure latency experimentations, any
epoch hosting an MPI_PUT of 1 MB takes about 340 µs for all three test
series" on Mellanox ConnectX QDR InfiniBand.  The default
:class:`~repro.network.model.NetworkModel` reproduces that (2 µs base
latency + 1 MiB / 3100 B/µs ≈ 340 µs); :func:`default_model` is the
single place benchmarks get their model from, so recalibration is a
one-line change.
"""

from __future__ import annotations

from ..network.model import PAPER_1MB_PUT_US, NetworkModel

__all__ = ["default_model", "PAPER_1MB_PUT_US", "DELAY_US", "BANDWIDTHS"]

#: The artificial delay all §VIII-A microbenchmarks inject.
DELAY_US: float = 1000.0

#: Internode bandwidths (B/µs) the network-speed ablations sweep, around
#: the calibrated QDR point.
BANDWIDTHS: dict[str, float] = {
    "4x slower": 775.0,
    "QDR (calibrated)": 3100.0,
    "4x faster": 12400.0,
}


def default_model() -> NetworkModel:
    """The calibrated model used by every benchmark."""
    return NetworkModel()


def expected_put_us(nbytes: int, model: NetworkModel | None = None) -> float:
    """Uncontended end-to-end internode put latency under the model."""
    model = model or default_model()
    return model.one_way(nbytes, intranode=False)
