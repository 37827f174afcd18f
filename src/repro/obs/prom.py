"""Prometheus text-format (exposition format 0.0.4) exporters.

Two metric families, one output format:

* **per-simulation** metrics — a run's flat metrics snapshot (the run
  manifest's ``metrics`` section, :func:`render_snapshot`) rendered one
  sample per metric.  Dotted names become underscore-joined Prometheus
  names under the ``repro_`` namespace (``bq.miss_rate`` ->
  ``repro_bq_miss_rate``); histograms become cumulative
  ``_bucket{le=...}`` series plus ``_sum``/``_count``.
* **sweep-level** metrics — a
  :class:`~repro.obs.telemetry.SweepAggregator` snapshot rendered as
  ``repro_sweep_*`` totals plus per-point ``repro_sweep_point_*``
  series labelled by point.

``repro metrics-export`` prints either family, and the sweep parent
refreshes ``<spool>/metrics.prom`` with the sweep family as points
settle, so a node-exporter-style textfile collector (or a human with
``curl``-less curiosity) can watch a sweep converge.
"""

import re

from repro.fsio import atomic_replace

_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_ESCAPE = str.maketrans({
    "\\": "\\\\", '"': '\\"', "\n": "\\n",
})

#: Prefix for every exported metric name.
NAMESPACE = "repro"


def metric_name(dotted, prefix=NAMESPACE):
    """``bq.miss_rate`` -> ``repro_bq_miss_rate`` (sanitized)."""
    name = _NAME_SANITIZE.sub("_", dotted.replace(".", "_"))
    if prefix:
        name = "%s_%s" % (prefix, name)
    if not re.match(r"^[a-zA-Z_:]", name):  # pragma: no cover - paranoia
        name = "_" + name
    return name


def _escape_label(value):
    return str(value).translate(_LABEL_ESCAPE)


def format_labels(labels):
    """``{k: v}`` -> ``{k="v",...}`` (empty string for no labels)."""
    if not labels:
        return ""
    inner = ",".join(
        '%s="%s"' % (key, _escape_label(value))
        for key, value in sorted(labels.items())
    )
    return "{%s}" % inner


def _format_value(value):
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return None  # non-numeric values are not exportable samples


def render_sample(lines, name, value, labels=None, help=None, kind=None,
                  seen=None):
    """Append one sample (with HELP/TYPE headers once per name)."""
    formatted = _format_value(value)
    if formatted is None:
        return
    if seen is None or name not in seen:
        if seen is not None:
            seen.add(name)
        if help:
            lines.append("# HELP %s %s" % (name, help.replace("\n", " ")))
        if kind:
            lines.append("# TYPE %s %s" % (name, kind))
    lines.append("%s%s %s" % (name, format_labels(labels), formatted))


def _render_histogram(lines, name, snapshot_value, seen=None):
    """A snapshot histogram as a Prometheus histogram.

    Snapshot histograms are exact ``{value: count}`` distributions; each
    distinct numeric value becomes an ``le`` bucket boundary (cumulative,
    per the exposition format), non-numeric distributions export only
    ``_count``.
    """
    buckets = (snapshot_value or {}).get("buckets") or {}
    count = (snapshot_value or {}).get("count", 0)
    total = (snapshot_value or {}).get("sum")
    numeric = []
    for raw_key, bucket_count in buckets.items():
        try:
            numeric.append((float(raw_key), bucket_count))
        except (TypeError, ValueError):
            numeric = None
            break
    if seen is None or name not in seen:
        if seen is not None:
            seen.add(name)
        lines.append("# TYPE %s histogram" % name)
    if numeric:
        cumulative = 0
        for boundary, bucket_count in sorted(numeric):
            cumulative += bucket_count
            lines.append('%s_bucket{le="%s"} %d' % (
                name, ("%g" % boundary), cumulative))
        lines.append('%s_bucket{le="+Inf"} %d' % (name, count))
    if total is not None:
        lines.append("%s_sum %s" % (name, repr(float(total))))
    lines.append("%s_count %d" % (name, count))


def render_snapshot(snapshot, prefix=NAMESPACE, labels=None):
    """A flat ``{dotted_name: value}`` metrics snapshot as Prometheus text.

    The snapshot carries no kind/help schema: numeric values export as
    untyped samples, histogram-shaped dicts (``{"count", "buckets",
    ...}``) as histograms, anything else is skipped.
    """
    lines = []
    seen = set()
    for dotted, value in snapshot.items():
        name = metric_name(dotted, prefix)
        if isinstance(value, dict) and "buckets" in value:
            _render_histogram(lines, name, value, seen=seen)
        else:
            render_sample(lines, name, value, labels=labels, seen=seen)
    return "\n".join(lines) + "\n" if lines else ""


def render_sweep(snapshot, prefix=NAMESPACE):
    """A telemetry aggregator snapshot as ``repro_sweep_*`` text."""
    totals = snapshot["totals"]
    counters = snapshot["counters"]
    sweep = snapshot["sweep"]
    lines = []
    seen = set()

    def sample(suffix, value, labels=None, help=None, kind="gauge"):
        render_sample(lines, "%s_sweep_%s" % (prefix, suffix), value,
                      labels=labels, help=help, kind=kind, seen=seen)

    sample("points_total", totals["expected"],
           help="Points in the sweep", kind="gauge")
    sample("points_settled", totals["settled"],
           help="Points with a final outcome")
    sample("points_running", totals["running"],
           help="Points currently simulating in a worker")
    for status in ("done", "failed", "cached", "resumed"):
        sample("points_by_status", totals["by_status"].get(status, 0),
               labels={"status": status},
               help="Settled points by final status")
    sample("retired_instructions_total", totals["retired"],
           help="Instructions retired across every point so far",
           kind="counter")
    sample("kips", totals["agg_kips"],
           help="Aggregate simulated KIPS (retired / simulation seconds)")
    sample("elapsed_seconds", totals["elapsed"],
           help="Wall-clock seconds since sweep_start")
    sample("cpu_seconds_total", totals["cpu_seconds"],
           help="Worker CPU seconds accumulated by finished points",
           kind="counter")
    sample("peak_worker_rss_kb", totals["peak_rss_kb"],
           help="Largest worker resident set seen (KiB)")
    sample("workers", counters["workers"],
           help="Distinct worker processes that have emitted events")
    for counter in ("retries", "timeouts", "pool_respawns", "cache_hits",
                    "journal_resumes", "heartbeats", "trace_records",
                    "trace_hits", "trace_reuses"):
        sample("%s_total" % counter, counters.get(counter, 0), kind="counter",
               help="Supervision %s observed by the aggregator"
                    % counter.replace("_", " "))
    sample("finished", 1 if sweep["finished"] else 0,
           help="1 once sweep_finish has been recorded")

    for point in snapshot["points"]:
        labels = {"point": point["label"]}
        render_sample(lines, "%s_sweep_point_retired" % prefix,
                      point["retired"], labels=labels,
                      help="Instructions retired by this point",
                      kind="gauge", seen=seen)
        render_sample(lines, "%s_sweep_point_kips" % prefix,
                      point["kips"], labels=labels,
                      help="Simulated KIPS of this point", kind="gauge",
                      seen=seen)
        render_sample(lines, "%s_sweep_point_seconds" % prefix,
                      point["seconds"], labels=labels,
                      help="Wall-clock seconds this point took",
                      kind="gauge", seen=seen)
        render_sample(lines, "%s_sweep_point_attempts" % prefix,
                      point["attempts"], labels=labels,
                      help="Simulation attempts launched for this point",
                      kind="gauge", seen=seen)
    return "\n".join(lines) + "\n" if lines else ""


def render_service(health, prefix=NAMESPACE):
    """A service-daemon health document as ``repro_service_*`` text.

    *health* is :meth:`repro.serve.daemon.ServiceDaemon.health` output:
    queue counts (depth, per-state), daemon counters (leased/done/
    failed/expired/shed/throttled/pool-spawn totals) and liveness — the
    ``GET /metrics`` endpoint of the simulation service.
    """
    queue = health.get("queue", {})
    counters = health.get("counters", {})
    lines = []
    seen = set()

    def sample(suffix, value, labels=None, help=None, kind="gauge"):
        render_sample(lines, "%s_service_%s" % (prefix, suffix), value,
                      labels=labels, help=help, kind=kind, seen=seen)

    sample("up", 1 if health.get("ok") else 0,
           help="1 while the daemon is serving")
    sample("draining", 1 if health.get("draining") else 0,
           help="1 once a drain has been requested")
    sample("uptime_seconds", health.get("uptime", 0.0),
           help="Seconds since the daemon started")
    sample("queue_depth", queue.get("depth", 0),
           help="Live jobs (submitted + leased): the backpressure measure")
    sample("leases", queue.get("leased", 0),
           help="Jobs currently leased to a daemon")
    for state in ("submitted", "leased", "done", "failed", "dead"):
        sample("jobs", queue.get(state, 0), labels={"state": state},
               help="Jobs by folded WAL state")
    sample("jobs_total", queue.get("total", 0),
           help="Jobs ever accepted into the WAL", kind="counter")
    for counter in ("leased", "done", "failed", "expired", "shed",
                    "throttled", "rounds", "heartbeats", "pool_spawns"):
        sample("%s_total" % counter,
               counters.get("%s_total" % counter, 0), kind="counter",
               help="Daemon %s events since start" % counter)
    return "\n".join(lines) + "\n" if lines else ""


def write_prom(path, text):
    """Atomically replace *path* with *text* (tmp + rename).

    Scrapers poll the file, so a partial write must never be visible;
    a snapshot lost to a power cut is simply rendered again, so the
    fsyncs are skipped.
    """
    return atomic_replace(path, text, durable=False)
