"""Sweep points, outcomes and the one runner of a point.

The evaluation grid — {workload x variant x input x config} — is
embarrassingly parallel: no point depends on another.  The engine,
:func:`repro.rel.supervise.run_supervised_sweep`, runs a list of
:class:`SweepPoint` s over a ``ProcessPoolExecutor`` (``jobs`` workers,
default ``os.cpu_count()`` / ``$REPRO_JOBS``) and returns one
:class:`SweepOutcome` per point **in input order**; this module holds
what it schedules.

:func:`run_point` runs one point, and everything that runs a point
calls it: ``repro run``, the figure benches' ``run()`` and the sweep
worker.  It builds the workload from the (deterministic) build recipe,
probes the :class:`~repro.perf.cache.ResultCache` (:func:`probe_cache`),
returns a stored entry without simulating, and otherwise simulates full
detail or sampled and stores the lossless snapshot from
:func:`repro.perf.cache.snapshot_result`.
:func:`_simulate_point` is the worker: it wraps :func:`run_point` with
the pid, the timing, error capture (a point that raises comes back as a
full traceback string without killing the sweep) and telemetry, and
ships the snapshot back, so nothing heavyweight (live pipelines, cache
hierarchies, predictor state) crosses the process boundary and the
parent builds nothing for a point it dispatches.
:func:`prewarm_traces` records a sampled point group's shared warm
trace once, in the sweep's own process.
"""

import os
import time
import traceback
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

from repro.core.config import CoreConfig, sandy_bridge_config
from repro.core.simulator import Simulator
from repro.perf.cache import CachedSimResult, snapshot_result
from repro.perf.sample import SampledSimulator

_ENV_JOBS = "REPRO_JOBS"


def default_jobs():
    """``$REPRO_JOBS`` if set, else ``os.cpu_count()``."""
    env = os.environ.get(_ENV_JOBS)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


@dataclass
class SweepPoint:
    """One independent simulation: a workload binary on a core config."""

    workload: str
    variant: str = "base"
    input_name: Optional[str] = None
    #: ``None`` becomes ``sandy_bridge_config()`` when the point is built.
    config: Optional[CoreConfig] = None
    scale: float = 1.0
    seed: int = 1
    max_instructions: Optional[int] = None
    warmup_instructions: int = 0
    #: Sampling spec (``"default"`` or ``"interval=N,period=N,..."``, see
    #: :meth:`repro.perf.sample.SamplingPlan.from_spec`).  ``None`` runs
    #: full detail; a spec runs the point through
    #: :class:`~repro.perf.sample.SampledSimulator` and the plan
    #: fingerprint enters the point's cache key.
    sampling: Optional[str] = None

    def __post_init__(self):
        if self.config is None:
            self.config = sandy_bridge_config()

    def label(self):
        return "%s(%s)/%s" % (self.workload, self.input_name or "", self.variant)

    def sampling_plan(self):
        """The validated :class:`SamplingPlan`, or ``None`` (full detail)."""
        if self.sampling is None:
            return None
        from repro.perf.sample import SamplingPlan

        return SamplingPlan.from_spec(self.sampling)


@dataclass
class SweepOutcome:
    """What happened to one point: a result, a cache hit, or an error.

    The resource-accounting fields — ``seconds`` (worker-measured wall
    time of the final attempt), ``attempts`` (simulation attempts
    launched) and ``resources`` (CPU/RSS delta when telemetry was on) —
    are first-class output: ``repro compare --json`` surfaces them per
    point alongside the stats, so bench tooling consumes them without
    digging through supervision journals.  ``timed_out``, ``resumed``
    and ``degraded`` record the supervision history.
    """

    point: SweepPoint
    result: Optional[CachedSimResult] = None
    error: Optional[str] = None
    cached: bool = False
    elapsed: float = 0.0
    #: PID of the process that simulated the point (the pool worker, or
    #: this process for inline runs) — with the full traceback in
    #: ``error``, enough to match a failed point against worker logs or a
    #: core dump.  ``None`` for cache hits.
    worker_pid: Optional[int] = None
    #: Wall-clock seconds of the final attempt, measured *inside* the
    #: worker (build, simulate and cache store) — recorded on success and
    #: failure alike, 0.0 for cache hits.  ``elapsed`` remains the
    #: parent-observed wall time, which additionally covers queueing and
    #: transfer.
    seconds: float = 0.0
    #: Simulation attempts actually launched (0 for cache hits and
    #: journal resumes; more than 1 after retries).
    attempts: int = 0
    #: Worker resource usage of the final attempt when telemetry was on
    #: (:meth:`repro.obs.resource.ResourceSample.delta`); ``None`` otherwise.
    resources: Optional[dict] = None
    #: Warm-trace provenance for sampled points run against a trace
    #: store ({source, key, budget, events}); ``None`` otherwise.  Kept
    #: out of ``result``/the cached payload so trace reuse never changes
    #: result bytes.
    trace: Optional[dict] = None
    #: The final failure was a wall-clock timeout.
    timed_out: bool = False
    #: Served from the checkpoint journal of an earlier, interrupted run.
    resumed: bool = False
    #: Ran inline after the pool was declared unrecoverable.
    degraded: bool = False
    #: The :class:`~repro.perf.cache.ResultCache` key the result was
    #: served from or stored at; ``None`` without a cache, on failure,
    #: for journal resumes and when the store could not be written.
    cache_key: Optional[str] = None

    @property
    def ok(self):
        return self.error is None


#: What one worker attempt produced, measured where it ran.  ``trace``
#: carries the warm-trace provenance for sampled points (or ``None``);
#: ``cache_key`` is where the payload sits in the result cache and
#: ``cached`` says it was served from there rather than simulated.
PointRun = namedtuple(
    "PointRun", "payload error pid seconds resources trace cache_key cached"
)
PointRun.__new__.__defaults__ = (None, None, False)


#: Per-process memo of the last few workload builds.  Builds are
#: deterministic and the built program is immutable during simulation
#: (every pipeline copies the data image into its own memory), so a
#: worker that processes several points of one sweep group — the common
#: case for config sweeps — skips the rebuild.  Tiny on purpose: two
#: entries cover the grouped access pattern without pinning every
#: workload's data image in worker memory.
_BUILD_MEMO = {}
_BUILD_MEMO_LIMIT = 2


def _build_point(point):
    from repro.workloads import get_workload

    memo_key = (point.workload, point.variant, point.input_name,
                point.scale, point.seed)
    built = _BUILD_MEMO.pop(memo_key, None)
    if built is None:
        built = get_workload(point.workload).build(
            point.variant, point.input_name, point.scale, point.seed
        )
    _BUILD_MEMO[memo_key] = built  # re-insert: dict order is the LRU
    while len(_BUILD_MEMO) > _BUILD_MEMO_LIMIT:
        _BUILD_MEMO.pop(next(iter(_BUILD_MEMO)))
    return built


def probe_cache(cache, point, built=None):
    """``(key, hit)``: *point*'s key in *cache* and the stored
    :class:`~repro.perf.cache.CachedSimResult` (``None`` on a miss).

    Builds through :func:`_build_point` unless given *point*'s *built*
    workload, and holds no reference to the program afterwards.
    """
    if built is None:
        built = _build_point(point)
    plan = point.sampling_plan()
    key = cache.key_for(
        built.program, point.config,
        point.max_instructions, point.warmup_instructions,
        sampling=plan.fingerprint() if plan is not None else None,
    )
    return key, cache.load(key, config=point.config)


def _workload_identity(point):
    return {
        "name": point.workload,
        "variant": point.variant,
        "input": point.input_name,
        "scale": point.scale,
        "seed": point.seed,
    }


#: What :func:`run_point` produced: the result (live, or the stored
#: entry on a hit), its snapshot payload, the cache key it was served
#: from or stored at (``None`` without a cache or when the store could
#: not be written) and whether it was a hit.
PointResult = namedtuple("PointResult", "result payload cache_key cached")


def run_point(point, cache=None, trace_store=None, observer=None,
              built=None, wrap=None):
    """Run one :class:`SweepPoint`; returns a :class:`PointResult`.

    Builds the workload (or takes *point*'s already *built* one),
    probes *cache* — a hit returns the stored entry and simulates
    nothing — and otherwise simulates with
    :class:`~repro.core.simulator.Simulator`, or with
    :class:`~repro.perf.sample.SampledSimulator` when the point has a
    sampling spec, and stores the snapshot in *cache*.  *trace_store*
    (a :class:`~repro.perf.tracestore.TraceStore` or its root path)
    serves a sampled point's warm pre-scan.  Raises whatever the build
    or the simulation raises.

    *observer* watches the simulation of a miss.  *wrap*, if given,
    runs that simulation instead: ``wrap(simulate)`` must return
    ``simulate(observer)`` for an observer of its own, which is how the
    sweep worker puts its telemetry around a miss and nothing around a
    hit.
    """
    if built is None:
        built = _build_point(point)
    cache_key = None
    if cache is not None:
        cache_key, hit = probe_cache(cache, point, built)
        if hit is not None:
            return PointResult(hit, hit.payload, cache_key, True)
    plan = point.sampling_plan()
    if plan is None:
        simulator = Simulator(built.program, point.config)
    else:
        if isinstance(trace_store, str):
            from repro.perf.tracestore import TraceStore

            trace_store = TraceStore(root=trace_store)
        simulator = SampledSimulator(
            built.program, point.config, plan, trace_store=trace_store
        )

    def simulate(observer):
        return simulator.run(
            point.max_instructions, point.warmup_instructions,
            observer=observer,
        )

    result = simulate(observer) if wrap is None else wrap(simulate)
    payload = snapshot_result(
        result,
        workload=_workload_identity(point),
        run={
            "max_instructions": point.max_instructions,
            "warmup_instructions": point.warmup_instructions,
            "sampling": point.sampling,
        },
    )
    if cache_key is not None and cache.store(cache_key, payload) is None:
        cache_key = None  # not persisted: name no entry
    return PointResult(result, payload, cache_key, False)


def _simulate_point(point, spool_dir=None, key=None, trace_store=None,
                    cache=None):
    """Pool worker: :func:`run_point` for one point; never raises.

    Returns a :class:`PointRun` — the result snapshot (or a full
    traceback on failure), the worker pid, the worker-measured wall
    seconds of the attempt, and the resource delta when telemetry was
    on.  Per-point error capture means one bad point cannot take down
    the executor (or the figure driving it); the pid makes a failure
    attributable to a specific pool process.

    *cache* (the sweep's :class:`~repro.perf.cache.ResultCache`, sent
    along so its root, schema and size bound apply here) and
    *trace_store* (a :class:`~repro.perf.tracestore.TraceStore` or, as
    it crosses the process boundary, a store root path) go to
    :func:`run_point`: a hit comes back with ``cached`` set, and a
    miss's store counts in ``seconds``.  When the scheduler pre-recorded
    a sampled point's warm trace, the run loads it instead of
    re-scanning.

    *spool_dir* (telemetry enabled) makes a miss emit ``point_start`` /
    ``progress`` heartbeats / ``point_finish`` to the worker's spool,
    then ``sampling`` for a sampled run and ``trace_reuse`` when it
    loaded a stored trace, correlated by *key* (the engine's point key;
    the point label when ``None``).  A hit emits nothing, and with
    *spool_dir* ``None`` this path does no telemetry work at all.
    """
    pid = os.getpid()
    start = time.perf_counter()
    try:
        measured = {}
        wrap = None
        if spool_dir is not None:
            from repro.obs.telemetry import emit_point_run, worker_spool

            spool = worker_spool(spool_dir)
            label, key = point.label(), key or point.label()

            def wrap(simulate):
                result, measured["resources"] = emit_point_run(
                    spool, label, key, simulate
                )
                report = getattr(result, "sampling", None)
                if report:
                    spool.emit(
                        "sampling", point=label, key=key,
                        fingerprint=report.get("fingerprint"),
                        intervals=report.get("intervals"),
                        measured_fraction=report.get("measured_fraction"),
                        ipc_rel_ci95=report.get("ipc_rel_ci95"),
                    )
                info = getattr(result, "trace_info", None)
                if info and info.get("source") == "hit":
                    spool.emit(
                        "trace_reuse", point=label, key=key,
                        trace_key=info.get("key"), events=info.get("events"),
                    )
                return result

        run = run_point(point, cache, trace_store, wrap=wrap)
        return PointRun(
            run.payload,
            None,
            pid,
            time.perf_counter() - start,
            measured.get("resources"),
            getattr(run.result, "trace_info", None),
            run.cache_key,
            run.cached,
        )
    except BaseException:
        return PointRun(None, traceback.format_exc(), pid,
                        time.perf_counter() - start, None)


def _trace_groups(items, point_of=lambda item: item):
    """``(ungrouped, groups)``: *items* split by warm-trace group.

    A warm pre-scan depends only on the workload recipe, the budget and
    the config's warm fingerprint; points that record none stay apart.
    """
    from repro.core.warm import warm_fingerprint

    ungrouped, groups = [], {}
    for item in items:
        point = point_of(item)
        if point.sampling is None or point.max_instructions is None:
            ungrouped.append(item)
            continue
        groups.setdefault((
            point.workload, point.variant, point.input_name, point.scale,
            point.seed, point.warmup_instructions + point.max_instructions,
            warm_fingerprint(point.config),
        ), []).append(item)
    return ungrouped, list(groups.values())


def prewarm_traces(points, trace_store, telemetry=None, cache=None):
    """Record (or cache-hit) every sampled point group's shared warm trace.

    A sweep's points group into far fewer *trace groups*
    (:func:`_trace_groups`) than points: a 4-workload × 6-config figure
    has 4.  For each group this records the trace once in the calling
    process and persists it; the points' runners then load it instead
    of re-scanning.  The sweep engine calls this once per group, while
    its pool simulates earlier groups.  With *cache* (the sweep's
    :class:`~repro.perf.cache.ResultCache`), a group not yet stored
    whose points are all in the result cache is not recorded: its
    workers answer from the cache and never read the trace.  Probing
    stops at the group's first miss.

    Emits ``trace_hit`` (group already stored) and ``trace_record``
    (freshly recorded) telemetry per group, each with the group's point
    count.  A group whose build or recording fails is skipped silently
    here — its points then record inline in their workers and surface
    any real error attributably.

    Returns ``{"groups": N, "hits": N, "recorded": N}``.
    """
    from repro.core.pipeline import Pipeline
    from repro.core.warm import record_portable_trace

    _, groups = _trace_groups(points)
    hits = 0
    recorded = 0
    for members in groups:
        point, n = members[0], len(members)
        limit = point.warmup_instructions + point.max_instructions
        try:
            built = _build_point(point)
            key = trace_store.key_for(built.program, point.config, limit)
            if trace_store.load(key) is not None:
                hits += 1
                if telemetry is not None:
                    telemetry.emit(
                        "trace_hit", point=point.label(),
                        key=point.label(), trace_key=key, points=n,
                    )
                continue
            if cache is not None and all(
                probe_cache(cache, member)[1] is not None
                for member in members
            ):
                continue
            # Mirror SampledSimulator.run exactly (oracle horizon is part
            # of the recording environment for perfect-predictor configs)
            # so a pre-recorded trace is byte-identical to an inline
            # recording.
            point.config._oracle_horizon = limit + 50_000
            trace = record_portable_trace(
                Pipeline(built.program, point.config), limit
            )
        except Exception:
            continue
        trace_store.store(key, trace)
        recorded += 1
        if telemetry is not None:
            telemetry.emit(
                "trace_record", point=point.label(), key=point.label(),
                trace_key=key, points=n, events=len(trace.kinds),
            )
    return {"groups": len(groups), "hits": hits, "recorded": recorded}
