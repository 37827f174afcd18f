"""Cross-process sweep telemetry: spools, heartbeats, and the aggregator.

PR 1's observers instrument *one* pipeline in *one* process.  A sweep
(:func:`repro.rel.supervise.run_supervised_sweep`) fans points out over
a process pool that is otherwise a black box until it returns.  This
module is the visibility layer across that pool:

* every participant appends structured events to its own **JSONL spool
  file** in a shared spool directory (``<dir>/<role>-<pid>.jsonl``) —
  one writer per file, so no cross-process locking is ever needed;
* sweep workers emit ``point_start`` / ``progress`` (periodic heartbeats
  with retirements, cycles and simulated-KIPS so far) / ``point_finish``
  (with the :mod:`repro.obs.resource` usage delta);
* the sweep parent emits ``sweep_start``, per-point supervision events
  (``cache_hit``, ``journal_resume``, ``retry``, ``timeout``,
  ``pool_respawn``, ``degraded``, the authoritative ``point_settled``)
  and ``sweep_finish``;
* a :class:`SweepAggregator` — in the sweep parent *or any other
  process* (``repro top`` / ``repro tail``) — incrementally tails every
  spool file and folds the events into live sweep-wide state: per-point
  status/progress, totals, retry/timeout/cache counters, peak worker
  RSS.  The parent-side :class:`SweepTelemetry` session also refreshes a
  Prometheus text snapshot (``metrics.prom``, see :mod:`repro.obs.prom`)
  in the spool directory as points settle (at most once a second) and
  when the sweep finishes.

Everything is opt-in: with no spool directory configured the sweep
engine skips every call site (one ``is None`` test), results are
byte-identical, and workers receive ``None`` and write nothing.  The
spool format shares the checkpoint journal's tolerance rules: unknown
event kinds are kept but ignored by folding, non-parsing lines are
skipped, and a torn final line (a crashed writer) is left un-consumed
until its newline arrives.

Enable by passing ``telemetry=<dir>`` to the sweep engine or by
exporting ``REPRO_TELEMETRY_DIR`` (which the benchmarks' prefetch and
``repro compare`` inherit).  Schemas are documented in
``docs/OBSERVABILITY.md`` ("Fleet telemetry").
"""

import json
import os
import time

from repro.obs.events import PipelineObserver
from repro.obs.resource import ResourceSample

#: Bump when the spool event schema changes; readers ignore events from
#: other major versions instead of misinterpreting them.
TELEMETRY_VERSION = 1

#: Environment variable naming the spool directory (enables telemetry).
ENV_SPOOL_DIR = "REPRO_TELEMETRY_DIR"

#: Name of the Prometheus text snapshot the aggregator refreshes.
PROM_SNAPSHOT_NAME = "metrics.prom"

#: Least seconds between two mid-sweep refreshes of that snapshot.
PROM_REFRESH_SECONDS = 1.0

#: Event kinds folded by the aggregator (unknown kinds are ignored).
EVENT_KINDS = (
    "sweep_start",
    "point_start",
    "progress",
    "point_finish",
    "cache_hit",
    "sampling",
    "trace_record",
    "trace_hit",
    "trace_reuse",
    "journal_resume",
    "retry",
    "timeout",
    "pool_respawn",
    "degraded",
    "point_settled",
    "sweep_finish",
)


def spool_dir_from_env():
    """``$REPRO_TELEMETRY_DIR`` or ``None`` (telemetry disabled)."""
    return os.environ.get(ENV_SPOOL_DIR) or None


class TelemetrySpool:
    """Append-only JSONL event writer: one file, one process, one role.

    The file is ``<directory>/<role>-<pid>.jsonl``; every event carries
    the schema version, a wall-clock timestamp, the writer pid and role.
    Appends are line-buffered and flushed per event, so a reader sees at
    worst one torn final line after a crash.  Emit failures (read-only
    spool, disk full) disable the spool rather than killing the sweep:
    telemetry is an observer, never a participant.
    """

    def __init__(self, directory, role="worker", pid=None):
        self.directory = directory
        self.role = role
        self.pid = os.getpid() if pid is None else pid
        self.path = os.path.join(
            directory, "%s-%d.jsonl" % (role, self.pid)
        )
        self._fh = None
        self._broken = False

    def emit(self, kind, **fields):
        """Append one event; returns the event dict (or None if broken)."""
        if self._broken:
            return None
        event = {"v": TELEMETRY_VERSION, "kind": kind,
                 "ts": time.time(), "pid": self.pid, "role": self.role}
        event.update(fields)
        try:
            if self._fh is None:
                os.makedirs(self.directory, exist_ok=True)
                self._fh = open(self.path, "a")
            self._fh.write(json.dumps(event, sort_keys=False) + "\n")
            self._fh.flush()
        except OSError:
            self._broken = True
            return None
        return event

    def close(self):
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None


#: Per-process spool cache: pool workers persist across points, so one
#: worker keeps appending to one file for its whole lifetime.
_WORKER_SPOOLS = {}


def worker_spool(directory):
    """The (cached) spool for this process in *directory*."""
    key = (directory, os.getpid())
    spool = _WORKER_SPOOLS.get(key)
    if spool is None:
        spool = _WORKER_SPOOLS[key] = TelemetrySpool(directory, role="worker")
    return spool


class TelemetryObserver(PipelineObserver):
    """In-simulation heartbeat: periodic ``progress`` events.

    Attached to the pipeline only when telemetry is enabled.  Cost model:
    one modulo test per simulated cycle; a clock read every
    *check_cycles* cycles; one spool append when at least *interval*
    host-seconds have passed since the last heartbeat.  Emits
    retirements, cycles and simulated-KIPS so far — the numbers
    ``repro top`` renders as per-point progress.
    """

    __slots__ = ("spool", "point", "key", "interval", "check_cycles",
                 "_started", "_last", "emitted")

    def __init__(self, spool, point, key=None, interval=0.5,
                 check_cycles=4096):
        self.spool = spool
        self.point = point
        self.key = key
        self.interval = interval
        self.check_cycles = max(1, check_cycles)
        self._started = time.perf_counter()
        self._last = self._started
        self.emitted = 0

    def on_cycle_end(self, pipeline):
        if pipeline.cycle % self.check_cycles:
            return
        now = time.perf_counter()
        if now - self._last < self.interval:
            return
        self._last = now
        elapsed = now - self._started
        retired = pipeline.stats.retired
        self.emitted += 1
        self.spool.emit(
            "progress", point=self.point, key=self.key,
            retired=retired, cycles=pipeline.cycle,
            elapsed=round(elapsed, 3),
            kips=round(retired / elapsed / 1000.0, 2) if elapsed else 0.0,
        )


def emit_point_run(spool, point_label, key, simulate):
    """Run one point under worker telemetry; returns ``simulate(observer)``.

    Wraps the simulation callable (which must accept ``observer=``) in
    ``point_start`` / ``point_finish`` events carrying the
    :mod:`repro.obs.resource` usage delta, plus the in-flight heartbeat
    observer.  Exceptions propagate after the failure is recorded.
    """
    spool.emit("point_start", point=point_label, key=key)
    observer = TelemetryObserver(spool, point_label, key=key)
    start = ResourceSample.capture()
    try:
        result = simulate(observer)
    except BaseException as exc:
        resources = start.delta(ResourceSample.capture())
        spool.emit(
            "point_finish", point=point_label, key=key, ok=False,
            error_kind=type(exc).__name__,
            seconds=resources["wall_seconds"], resources=resources,
        )
        raise
    resources = start.delta(ResourceSample.capture())
    retired = result.stats.retired
    seconds = resources["wall_seconds"]
    spool.emit(
        "point_finish", point=point_label, key=key, ok=True,
        seconds=seconds, retired=retired, cycles=result.stats.cycles,
        kips=round(retired / seconds / 1000.0, 2) if seconds else 0.0,
        resources=resources,
    )
    return result, resources


# ------------------------------------------------------------ aggregation


class PointState:
    """Folded view of one sweep point across every event mentioning it."""

    __slots__ = ("key", "label", "status", "pid", "retired", "cycles",
                 "kips", "seconds", "attempts", "retries", "timeouts",
                 "cached", "resumed", "degraded", "error_kind",
                 "resources", "first_ts", "last_ts", "sampling",
                 "trace_reused")

    def __init__(self, key, label):
        self.key = key
        self.label = label
        self.status = "pending"
        self.pid = None
        self.retired = 0
        self.cycles = 0
        self.kips = 0.0
        self.seconds = 0.0
        self.attempts = 0
        self.retries = 0
        self.timeouts = 0
        self.cached = False
        self.resumed = False
        self.degraded = False
        self.error_kind = None
        self.resources = None
        self.first_ts = None
        self.last_ts = None
        self.sampling = None
        self.trace_reused = False

    @property
    def settled(self):
        return self.status in ("done", "failed", "cached", "resumed")

    def to_dict(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}


class SweepAggregator:
    """Incremental fold of every spool file in one directory.

    :meth:`poll` tails each ``*.jsonl`` spool from its last-consumed
    byte offset, parses the complete lines, folds the known event kinds
    into per-point and sweep-wide state, and returns the newly read
    events (oldest-first across files, ordered by timestamp) — which is
    exactly what ``repro tail --follow`` prints.  A line without a
    trailing newline (a writer mid-append, or a torn final line after a
    crash) is left un-consumed until it completes.
    """

    def __init__(self, directory):
        self.directory = directory
        self._offsets = {}
        self.sweep = {
            "label": None, "total": 0, "jobs": None, "policy": None,
            "started": None, "finished": None,
        }
        self.counters = {
            "events": 0, "heartbeats": 0, "cache_hits": 0,
            "journal_resumes": 0, "retries": 0, "timeouts": 0,
            "pool_respawns": 0, "degraded": 0, "workers": 0,
            "sampled_points": 0,
            "trace_records": 0, "trace_hits": 0, "trace_reuses": 0,
        }
        self.points = {}
        self._worker_pids = set()
        self.peak_rss_kb = 0
        self.cpu_seconds = 0.0

    # -- reading --------------------------------------------------------

    def _spool_paths(self):
        try:
            names = sorted(os.listdir(self.directory))
        except OSError:
            return []
        return [
            os.path.join(self.directory, name)
            for name in names
            if name.endswith(".jsonl")
        ]

    def poll(self):
        """Fold newly appended events; returns them sorted by timestamp."""
        fresh = []
        for path in self._spool_paths():
            offset = self._offsets.get(path, 0)
            try:
                with open(path, "rb") as fh:
                    fh.seek(offset)
                    chunk = fh.read()
            except OSError:
                continue
            if not chunk:
                continue
            # Only consume complete lines; a torn tail stays for later.
            end = chunk.rfind(b"\n")
            if end < 0:
                continue
            self._offsets[path] = offset + end + 1
            for line in chunk[: end + 1].splitlines():
                try:
                    event = json.loads(line)
                except ValueError:
                    continue
                if not isinstance(event, dict) or "kind" not in event:
                    continue
                if event.get("v", TELEMETRY_VERSION) != TELEMETRY_VERSION:
                    continue
                fresh.append(event)
        fresh.sort(key=lambda e: e.get("ts") or 0)
        for event in fresh:
            self._fold(event)
        return fresh

    # -- folding --------------------------------------------------------

    def _point(self, event):
        key = event.get("key") or event.get("point")
        if key is None:
            return None
        state = self.points.get(key)
        if state is None:
            state = self.points[key] = PointState(
                key, event.get("point") or key
            )
        if event.get("point"):
            state.label = event["point"]
        ts = event.get("ts")
        if ts is not None:
            if state.first_ts is None:
                state.first_ts = ts
            state.last_ts = ts
        return state

    def _fold(self, event):
        kind = event.get("kind")
        self.counters["events"] += 1
        if event.get("role") == "worker":
            pid = event.get("pid")
            if pid is not None and pid not in self._worker_pids:
                self._worker_pids.add(pid)
                self.counters["workers"] = len(self._worker_pids)
        if kind == "sweep_start":
            self.sweep.update(
                label=event.get("label"), total=event.get("total", 0),
                jobs=event.get("jobs"), policy=event.get("policy"),
                started=event.get("ts"),
            )
        elif kind == "sweep_finish":
            self.sweep["finished"] = event.get("ts")
        elif kind == "point_start":
            state = self._point(event)
            if state is not None and not state.settled:
                state.status = "running"
                state.pid = event.get("pid")
                state.attempts += 1
        elif kind == "progress":
            state = self._point(event)
            self.counters["heartbeats"] += 1
            if state is not None and not state.settled:
                state.retired = event.get("retired", state.retired)
                state.cycles = event.get("cycles", state.cycles)
                state.kips = event.get("kips", state.kips)
        elif kind == "point_finish":
            state = self._point(event)
            resources = event.get("resources") or {}
            if resources.get("maxrss_kb"):
                self.peak_rss_kb = max(self.peak_rss_kb,
                                       resources["maxrss_kb"])
            if resources.get("cpu_seconds"):
                self.cpu_seconds += resources["cpu_seconds"]
            if state is not None and not state.settled:
                state.retired = event.get("retired", state.retired)
                state.cycles = event.get("cycles", state.cycles)
                state.kips = event.get("kips", state.kips)
                state.seconds = event.get("seconds", state.seconds)
                state.resources = resources or state.resources
                if event.get("ok"):
                    state.status = "finished"  # parent settle confirms
                else:
                    state.status = "pending"  # may be retried
                    state.error_kind = event.get("error_kind")
        elif kind == "sampling":
            # One sampled point finished its sampled loop: record its
            # honest accounting on the point state.
            self.counters["sampled_points"] += 1
            state = self._point(event)
            if state is not None:
                state.sampling = {
                    "fingerprint": event.get("fingerprint"),
                    "intervals": event.get("intervals"),
                    "measured_fraction": event.get("measured_fraction"),
                    "ipc_rel_ci95": event.get("ipc_rel_ci95"),
                }
        elif kind == "trace_record":
            # The scheduler recorded a workload group's shared warm
            # trace (event carries how many points will reuse it).
            self.counters["trace_records"] += 1
        elif kind == "trace_hit":
            # A group's trace was already in the store.
            self.counters["trace_hits"] += 1
        elif kind == "trace_reuse":
            # A worker served its warm pre-scan from the shared store.
            self.counters["trace_reuses"] += 1
            state = self._point(event)
            if state is not None:
                state.trace_reused = True
        elif kind == "cache_hit":
            state = self._point(event)
            self.counters["cache_hits"] += 1
            if state is not None:
                state.status = "cached"
                state.cached = True
        elif kind == "journal_resume":
            state = self._point(event)
            self.counters["journal_resumes"] += 1
            if state is not None:
                state.status = "resumed"
                state.resumed = True
        elif kind == "retry":
            state = self._point(event)
            self.counters["retries"] += 1
            if state is not None:
                state.retries += 1
                if not state.settled:
                    state.status = "pending"
        elif kind == "timeout":
            state = self._point(event)
            self.counters["timeouts"] += 1
            if state is not None:
                state.timeouts += 1
                if not state.settled:
                    state.status = "pending"
        elif kind == "pool_respawn":
            self.counters["pool_respawns"] += 1
        elif kind == "degraded":
            self.counters["degraded"] += 1
        elif kind == "point_settled":
            state = self._point(event)
            if state is None:
                return
            state.seconds = event.get("seconds", state.seconds)
            if event.get("attempts"):
                state.attempts = event["attempts"]
            if event.get("retired"):
                state.retired = event["retired"]
            if event.get("resources"):
                state.resources = event["resources"]
            if event.get("cached"):
                state.status, state.cached = "cached", True
            elif event.get("resumed"):
                state.status, state.resumed = "resumed", True
            elif event.get("ok"):
                state.status = "done"
            else:
                state.status = "failed"
                state.error_kind = event.get("error_kind") or state.error_kind
            state.degraded = bool(event.get("degraded")) or state.degraded

    # -- output ---------------------------------------------------------

    @property
    def finished(self):
        return self.sweep["finished"] is not None

    def snapshot(self):
        """JSON-safe sweep-wide view (the ``repro top`` data model)."""
        points = list(self.points.values())
        by_status = {}
        for state in points:
            by_status[state.status] = by_status.get(state.status, 0) + 1
        settled = sum(1 for s in points if s.settled)
        running = [s for s in points if s.status == "running"]
        retired = sum(s.retired for s in points)
        seconds = sum(s.seconds for s in points if s.seconds)
        now = time.time()
        started = self.sweep["started"]
        elapsed = (
            (self.sweep["finished"] or now) - started if started else 0.0
        )
        return {
            "kind": "repro.telemetry",
            "version": TELEMETRY_VERSION,
            "sweep": dict(self.sweep),
            "counters": dict(self.counters),
            "totals": {
                "points": len(points),
                "expected": self.sweep["total"] or len(points),
                "settled": settled,
                "running": len(running),
                "by_status": by_status,
                "retired": retired,
                "sim_seconds": round(seconds, 3),
                "agg_kips": (
                    round(retired / seconds / 1000.0, 2) if seconds else 0.0
                ),
                "elapsed": round(elapsed, 3),
                "peak_rss_kb": self.peak_rss_kb,
                "cpu_seconds": round(self.cpu_seconds, 3),
            },
            "points": [s.to_dict() for s in points],
        }


# --------------------------------------------------------- parent session

_STATUS_GLYPH = {
    "pending": ".", "running": ">", "finished": "~",
    "done": "+", "cached": "=", "resumed": "^", "failed": "!",
}


class SweepTelemetry:
    """Parent-side telemetry session for one sweep.

    Owns the parent's spool (role ``sweep``), an aggregator over the
    whole directory, and the ``metrics.prom`` snapshot.  The sweep
    engine calls :meth:`emit` for supervision events and :meth:`pump`
    as points settle; both are no-ops to arrange — every call site is
    guarded by a single ``telemetry is not None`` test.  One session can
    serve many sweeps (the service daemon keeps one for its lifetime):
    its aggregator then folds only what was appended since its last
    pump.
    """

    def __init__(self, directory, label=None):
        self.directory = directory
        self.label = label
        self.spool = TelemetrySpool(directory, role="sweep")
        self.aggregator = SweepAggregator(directory)
        self.prom_path = os.path.join(directory, PROM_SNAPSHOT_NAME)
        self._pumped = float("-inf")

    @classmethod
    def resolve(cls, telemetry):
        """Normalise a sweep engine's ``telemetry=`` argument.

        ``None`` consults ``$REPRO_TELEMETRY_DIR`` (the benchmarks' and
        CLI's enablement path); a string is a spool directory; a session
        passes through.  Returns a session or ``None`` (disabled).
        """
        if telemetry is None:
            directory = spool_dir_from_env()
            return cls(directory) if directory else None
        if isinstance(telemetry, cls):
            return telemetry
        return cls(str(telemetry))

    # -- parent events --------------------------------------------------

    def emit(self, kind, **fields):
        return self.spool.emit(kind, **fields)

    def sweep_started(self, total, jobs, label=None, policy=None):
        self.emit("sweep_start", total=total, jobs=jobs,
                  label=label or self.label, policy=policy)

    def point_settled(self, outcome, key=None):
        """Record the authoritative outcome of one point.

        Pumps at most once per :data:`PROM_REFRESH_SECONDS`; the pump
        at :meth:`sweep_finished` makes ``metrics.prom`` exact.

        *key* is the sweep engine's stable point identity (the
        supervision ``point_key`` digest where one exists); events fall
        back to correlating by the point label without it.
        """
        self.emit(
            "point_settled",
            point=outcome.point.label(),
            key=key,
            ok=outcome.ok,
            cached=outcome.cached,
            resumed=outcome.resumed,
            degraded=outcome.degraded,
            seconds=outcome.seconds,
            attempts=outcome.attempts,
            retired=(
                outcome.result.stats.retired
                if outcome.ok and outcome.result is not None else 0
            ),
            resources=outcome.resources,
            error_kind=(
                None if outcome.ok
                else (outcome.error or "").strip().splitlines()[-1][:120]
                or "error"
            ),
        )
        if time.monotonic() - self._pumped >= PROM_REFRESH_SECONDS:
            self.pump()

    def sweep_finished(self, outcomes):
        ok = sum(1 for o in outcomes if o is not None and o.ok)
        self.emit("sweep_finish", ok=ok, total=len(outcomes))
        self.pump()

    # -- aggregation ----------------------------------------------------

    def pump(self):
        """Fold new events and refresh the Prometheus snapshot file."""
        self._pumped = time.monotonic()
        self.aggregator.poll()
        from repro.obs.prom import render_sweep, write_prom

        try:
            write_prom(self.prom_path, render_sweep(self.aggregator.snapshot()))
        except OSError:
            pass

    def close(self):
        self.spool.close()


# ------------------------------------------------------------- rendering


def _fmt_duration(seconds):
    if seconds >= 3600:
        return "%dh%02dm" % (seconds // 3600, (seconds % 3600) // 60)
    if seconds >= 60:
        return "%dm%02ds" % (seconds // 60, seconds % 60)
    return "%.1fs" % seconds


def format_top(snapshot, width=96, max_points=None):
    """Render one ``repro top`` screen from an aggregator snapshot."""
    sweep = snapshot["sweep"]
    totals = snapshot["totals"]
    lines = []
    state = "finished" if sweep["finished"] else (
        "running" if sweep["started"] else "waiting"
    )
    title = sweep["label"] or "sweep"
    lines.append("repro top — %s [%s]" % (title, state))
    lines.append(
        "points %d/%d settled  running %d  cached %d  resumed %d  "
        "failed %d" % (
            totals["settled"], totals["expected"], totals["running"],
            totals["by_status"].get("cached", 0),
            totals["by_status"].get("resumed", 0),
            totals["by_status"].get("failed", 0),
        )
    )
    counters = snapshot["counters"]
    lines.append(
        "retired %d  agg %.2f KIPS  workers %d  retries %d  timeouts %d  "
        "respawns %d  peak rss %d KiB  cpu %.1fs  elapsed %s" % (
            totals["retired"], totals["agg_kips"], counters["workers"],
            counters["retries"], counters["timeouts"],
            counters["pool_respawns"], totals["peak_rss_kb"],
            totals["cpu_seconds"], _fmt_duration(totals["elapsed"]),
        )
    )
    if (counters.get("trace_records") or counters.get("trace_hits")
            or counters.get("trace_reuses")):
        lines.append(
            "warm traces: recorded %d  store hits %d  worker reuses %d" % (
                counters.get("trace_records", 0),
                counters.get("trace_hits", 0),
                counters.get("trace_reuses", 0),
            )
        )
    lines.append("-" * min(width, 96))
    label_w = max(24, min(48, width - 48))
    points = snapshot["points"]
    if max_points is not None and len(points) > max_points:
        # Keep the interesting rows: unsettled first, then latest settled.
        active = [p for p in points if p["status"] in ("running", "pending",
                                                       "finished")]
        rest = [p for p in points if p not in active]
        points = (active + rest)[:max_points]
    for point in points:
        glyph = _STATUS_GLYPH.get(point["status"], "?")
        detail = ""
        if point["status"] in ("running", "finished") and point["retired"]:
            detail = "%d retired @ %.2f KIPS" % (point["retired"],
                                                 point["kips"])
        elif point["status"] == "done":
            detail = "%d retired in %.2fs" % (point["retired"],
                                              point["seconds"])
            if point["attempts"] > 1:
                detail += " (attempt %d)" % point["attempts"]
        elif point["status"] == "failed":
            detail = point["error_kind"] or "error"
        lines.append(" %s %-8s %-*s %s" % (
            glyph, point["status"], label_w,
            str(point["label"])[:label_w], detail,
        ))
    return "\n".join(lines)


def format_tail_event(event):
    """One human-oriented ``repro tail`` line for a spool event."""
    ts = time.strftime("%H:%M:%S", time.localtime(event.get("ts", 0)))
    kind = event.get("kind", "?")
    bits = []
    for field in ("point", "retired", "kips", "seconds", "attempts",
                  "ok", "error_kind", "total", "jobs"):
        if event.get(field) not in (None, ""):
            bits.append("%s=%s" % (field, event[field]))
    return "%s %-14s [%s:%s] %s" % (
        ts, kind, event.get("role", "?"), event.get("pid", "?"),
        " ".join(bits),
    )
