"""Observability: metrics, run telemetry, reports and profiling.

The paper's evaluation is an exercise in cost accounting — simulations,
epochs and seconds traded for accuracy (Table 5.1, Figure 5.8).  This
package is the substrate that accounting flows through at runtime:

* :mod:`repro.obs.metrics` — counters / gauges / histogram timers
  (:class:`MetricsRegistry`), cheap enough to leave permanently in hot
  paths (no-op when disabled), with a process-global instance
  (:data:`METRICS`) for simulator-level counters;
* :mod:`repro.obs.telemetry` — the :class:`RunTelemetry` event stream
  training, cross-validation and the explorer emit into;
* :mod:`repro.obs.report` — :class:`TelemetryReport`, rendering a run
  summary as Markdown or the stable JSON document CI diffs;
* :mod:`repro.obs.profile` — :class:`PhaseProfiler` behind the
  ``repro profile`` subcommand;
* :mod:`repro.obs.atomicio` — write-temp-then-rename file writes, so an
  interrupted run never leaves a truncated artifact (telemetry
  documents, metrics snapshots, caches, checkpoints), and the
  pickle-free ``.npz`` load-or-rebuild pair every disk cache uses;
* :mod:`repro.obs.resources` — ``getrusage``-based CPU/RSS/wall
  accounting (:class:`ResourceMeter`), the per-cell cost meter behind
  the campaign orchestrator's ``campaign.*`` accounting.

Event and metric names are documented in ``docs/observability.md``.
This package imports numpy but deliberately nothing from the rest of
``repro``, so every layer (core, simulators, CLI) can depend on it
without cycles.
"""

from .atomicio import (
    atomic_write_arrays,
    atomic_write_bytes,
    atomic_write_text,
    load_cached_arrays,
)
from .metrics import (
    METRICS,
    MetricsRegistry,
    TimerStats,
    disable_metrics,
    enable_metrics,
)
from .profile import PhaseProfiler, PhaseRecord
from .report import TelemetryReport
from .resources import ResourceMeter, ResourceUsage
from .telemetry import (
    NULL_TELEMETRY,
    PhaseStats,
    RunTelemetry,
    TelemetryEvent,
)

__all__ = [
    "METRICS",
    "MetricsRegistry",
    "NULL_TELEMETRY",
    "PhaseProfiler",
    "PhaseRecord",
    "PhaseStats",
    "ResourceMeter",
    "ResourceUsage",
    "RunTelemetry",
    "TelemetryEvent",
    "TelemetryReport",
    "TimerStats",
    "atomic_write_arrays",
    "atomic_write_bytes",
    "atomic_write_text",
    "disable_metrics",
    "enable_metrics",
    "load_cached_arrays",
]
