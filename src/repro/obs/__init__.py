"""Observability layer: run metrics, pipeline event tracing, exporters.

``repro.obs`` is deliberately free of any import from the simulator
packages (``repro.core``, ``repro.memsys``, ``repro.branch``): the
simulator builds its metrics snapshot with helpers defined here and
*calls into* a :class:`PipelineObserver` defined here, so the
dependency arrow points from the simulator to the observability layer
and never back.  Three pieces:

``repro.obs.metrics``
    The helpers that build a run's flat, JSON-safe metrics snapshot
    (``fetch.stall_cycles``, ``bq.miss_rate``,
    ``memsys.l1d.mshr.occupancy``) from the components' ``stats()``.

``repro.obs.events``
    The :class:`PipelineObserver` hook protocol (no-ops by default — the
    pipeline guards every call site with ``if self.obs is not None``, so a
    simulation with tracing disabled pays one attribute test per boundary),
    a bounded :class:`RingBuffer`, the :class:`EventTracer` that records
    structured per-instruction events and lifecycles, and the
    :class:`CycleRecorder` that records one row per cycle (the text
    timeline and the occupancy counter tracks).

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
    CycleRecord,
    CycleRecorder,
    EventTracer,
    InstLifecycle,
    MultiObserver,
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
from repro.obs.prom import (
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
    "CycleRecord",
    "CycleRecorder",
    "EventTracer",
    "InstLifecycle",
    "MultiObserver",
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
