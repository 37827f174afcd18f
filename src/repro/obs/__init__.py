"""Observability layer: metrics registry, pipeline event tracing, exporters.

``repro.obs`` is deliberately free of any import from the simulator
packages (``repro.core``, ``repro.memsys``, ``repro.branch``): those
components *register into* a :class:`MetricsRegistry` and *call into* a
:class:`PipelineObserver` that are both defined here, so the dependency
arrow points from the simulator to the observability layer and never
back.  Three pieces:

``repro.obs.metrics``
    Hierarchical named counters / gauges / histograms
    (``fetch.stall_cycles``, ``bq.miss_rate``, ``memsys.l1d.mshr.occupancy``)
    with a JSON-safe ``snapshot()``.

``repro.obs.events``
    The :class:`PipelineObserver` hook protocol (no-ops by default — the
    pipeline guards every call site with ``if self.obs is not None``, so a
    simulation with tracing disabled pays one attribute test per boundary),
    a bounded :class:`RingBuffer`, the :class:`EventTracer` that records
    structured per-instruction events and lifecycles, and the per-cycle
    :class:`OccupancySampler`.

``repro.obs.export``
    JSONL event dumps, Chrome trace-event / Perfetto JSON, and the
    versioned run manifest (config + workload identity + full metrics
    snapshot) — everything ``python -m repro run --json`` and
    ``python -m repro trace`` emit.

See ``docs/OBSERVABILITY.md`` for hook points, the metric naming scheme,
artifact schemas and a Perfetto how-to.
"""

from repro.obs.events import (
    EVENT_KINDS,
    EventTracer,
    InstLifecycle,
    MultiObserver,
    OccupancySampler,
    PipelineObserver,
    RingBuffer,
    TraceEvent,
)
from repro.obs.export import (
    MANIFEST_VERSION,
    chrome_trace,
    events_to_jsonl,
    merge_chrome_trace_files,
    merge_chrome_traces,
    run_manifest,
    write_chrome_trace,
    write_json,
    write_jsonl,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    build_registry,
    register_stats_dict,
)
from repro.obs.prom import (
    render_registry,
    render_snapshot,
    render_sweep,
    write_prom,
)
from repro.obs.resource import ResourceSample
from repro.obs.telemetry import (
    TELEMETRY_VERSION,
    SweepAggregator,
    SweepTelemetry,
    TelemetryObserver,
    TelemetrySpool,
    format_tail_event,
    format_top,
    worker_spool,
)

__all__ = [
    "EVENT_KINDS",
    "EventTracer",
    "InstLifecycle",
    "MultiObserver",
    "OccupancySampler",
    "PipelineObserver",
    "RingBuffer",
    "TraceEvent",
    "MANIFEST_VERSION",
    "chrome_trace",
    "events_to_jsonl",
    "merge_chrome_trace_files",
    "merge_chrome_traces",
    "run_manifest",
    "write_chrome_trace",
    "write_json",
    "write_jsonl",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "build_registry",
    "register_stats_dict",
    "render_registry",
    "render_snapshot",
    "render_sweep",
    "write_prom",
    "ResourceSample",
    "TELEMETRY_VERSION",
    "SweepAggregator",
    "SweepTelemetry",
    "TelemetryObserver",
    "TelemetrySpool",
    "format_tail_event",
    "format_top",
    "worker_spool",
]
