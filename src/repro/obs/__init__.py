"""repro.obs — unified telemetry for the simulated RMA stack.

Metrics and one recorder, opt-in via ``MPIRuntime(metrics=True)`` and
``MPIRuntime(causal=True)``:

- :mod:`~repro.obs.metrics` — the metrics summary (counters, gauges,
  fixed-bucket histograms), folded at snapshot time from the span
  graph and the counts each layer keeps always-on;
- :mod:`~repro.obs.profiler` — the §VII-D 7-step progress-engine
  profiler (per-step invocation/work/wall-clock accounting);
- :mod:`~repro.obs.causal` + :mod:`~repro.obs.critpath` — the causal
  span/edge recorder threaded through the DES, the one timeline of a
  run, and on top of it exact blocked-time attribution per epoch and a
  critical-path extractor (the §III pattern detector,
  :mod:`repro.patterns`, reads the same spans);
- :mod:`~repro.obs.chrometrace` — a schema-checked Chrome
  trace-event JSON exporter drawing the span graph as rank tracks,
  with metric samples and causal flow arrows (loads in chrome://tracing
  and Perfetto).

``python -m repro.obs`` runs one instrumented test-matrix cell
(``--workload`` / ``--series``, halo on ``new`` by default) and prints
the per-step / per-epoch report or writes a trace file;
``python -m repro.obs critpath`` runs the same cell and prints where
its epochs' time went; see ``docs/OBSERVABILITY.md`` for the model and
a walkthrough.
"""

from .causal import CATEGORIES, CausalRecorder, Span, span_category
from .chrometrace import (
    export_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace_file,
)
from .critpath import (
    ConservationError,
    attribute_epochs,
    critical_path,
    critpath_report,
)
from .metrics import (
    BYTES_BUCKETS,
    DEFAULT_LATENCY_BUCKETS_US,
    Histogram,
    quantile_from_snapshot,
)
from .profiler import PROGRESS_STEPS, EngineProfiler, StepStat
from .report import (
    format_counters,
    format_epoch_profile,
    format_obs_report,
    format_signal_boards,
    format_step_profile,
)

__all__ = [
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS_US",
    "BYTES_BUCKETS",
    "quantile_from_snapshot",
    "EngineProfiler",
    "StepStat",
    "PROGRESS_STEPS",
    "export_chrome_trace",
    "write_chrome_trace_file",
    "validate_chrome_trace",
    "format_obs_report",
    "format_step_profile",
    "format_epoch_profile",
    "format_counters",
    "format_signal_boards",
    "CausalRecorder",
    "Span",
    "CATEGORIES",
    "span_category",
    "ConservationError",
    "attribute_epochs",
    "critical_path",
    "critpath_report",
]
