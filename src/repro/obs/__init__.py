"""``repro.obs`` — unified tracing, metrics and profiling layer.

Zero-dependency observability for the simulation → campaign → compile
pipeline:

* :mod:`repro.obs.trace` — span tracer (`with trace("campaign.batch")`),
  bounded ring buffer, thread- and process-aware via trace-context
  propagation through the pool initializer; off by default and
  guaranteed not to perturb results (bitwise-identical campaigns with
  tracing on or off).
* :mod:`repro.obs.metrics` — process-wide counters/gauges/histograms
  with labels; the single backing store behind the schedule-cache
  counters, ``packed_accumulator_counters``, transport pipe bytes,
  supervisor recovery events and clamped-event counts — every event
  count ``CampaignStats`` reports.
  Snapshots diff and merge associatively, so workers ship per-batch
  diffs to the parent over the existing moments transport.
* :mod:`repro.obs.export` — JSONL and Chrome trace-event (Perfetto)
  exporters, losslessly round-trippable.
* :mod:`repro.obs.summary` — self-time ranking and the per-phase
  histogram table ``campaign_stats_panel`` renders.
* :mod:`repro.obs.log` — the ``repro.*`` :mod:`logging` hierarchy
  (NullHandler by default) that mirrors the package's one-shot
  warnings.

CLI: ``python -m repro obs record|summary|convert`` (see
:mod:`repro.obs.cli`).

Import discipline: this package imports **nothing** from the rest of
``repro`` at module level (``summary``/``cli`` pull rendering helpers
lazily), because nearly every other subpackage imports it.
"""

from . import export, metrics, summary
from .log import get_logger
from .metrics import (
    MetricsRegistry,
    MetricsSnapshot,
    counter_value,
    gauge_value,
    inc,
    max_gauge,
    merge_into,
    observe,
    registry,
    reset_metrics,
    set_gauge,
    snapshot,
)
from .trace import (
    Tracer,
    adopt_trace_context,
    current_span_id,
    disable_tracing,
    enable_tracing,
    get_tracer,
    ingest_spans,
    trace,
    trace_context,
    tracing_enabled,
)

__all__ = [
    "MetricsRegistry",
    "MetricsSnapshot",
    "Tracer",
    "adopt_trace_context",
    "counter_value",
    "current_span_id",
    "disable_tracing",
    "enable_tracing",
    "export",
    "gauge_value",
    "get_logger",
    "get_tracer",
    "inc",
    "ingest_spans",
    "max_gauge",
    "merge_into",
    "metrics",
    "observe",
    "registry",
    "reset_metrics",
    "set_gauge",
    "snapshot",
    "summary",
    "trace",
    "trace_context",
    "tracing_enabled",
]
