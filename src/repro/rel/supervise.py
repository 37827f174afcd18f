"""The sweep engine: per-point timeouts, retries, pool recovery, resume.

:func:`run_supervised_sweep` runs a list of
:class:`~repro.perf.sweep.SweepPoint` s — inline for ``jobs=1``, over a
``ProcessPoolExecutor`` otherwise — and returns one
:class:`~repro.perf.sweep.SweepOutcome` per point, in input order, with
stats byte-identical to an inline run.  A result cache serves hits
without simulating, a trace store shares sampled points' warm pre-scans,
and telemetry makes the sweep observable from outside the process.

The cache is probed and filled by whoever builds the point's program:
the worker, or this process inline
(:func:`~repro.perf.sweep._simulate_point`).  A pooled sweep's parent
probes too only while no pool is live, up to the first miss, so a fully
cached one-shot sweep never forks and a warm pool's parent builds
nothing.

With a trace store, each warm-trace group's points are *held* until
this process records the group's trace.  A runner records the next held
group whenever it can dispatch nothing else, so a pool simulates earlier
groups meanwhile.  Held groups survive pool restarts and degraded mode.

A bare pool would let a hung point occupy its worker forever, a
SIGKILLed worker poison every outstanding future (``BrokenProcessPool``)
and an interrupted sweep restart from zero, so the engine also
supervises:

* per-point wall-clock **timeouts**: when a point exceeds
  ``policy.timeout`` seconds, the pool's workers are killed (SIGKILL — a
  wedged worker may not honour anything milder), the pool is respawned,
  and the point is retried or failed with ``timed_out=True``.  Points
  that were merely sharing the pool are requeued with their retry budget
  refunded.
* bounded **retries** with exponential backoff (``policy.retries`` extra
  attempts, ``backoff * backoff_factor**(attempt-1)`` seconds apart) —
  applied uniformly to timeouts, worker deaths and point-level errors.
* **BrokenProcessPool recovery**: an unexpectedly dying pool is respawned
  and its in-flight points re-run; after ``max_pool_respawns`` deaths the
  sweep degrades gracefully to inline in-process execution (marked
  ``degraded=True`` on the affected outcomes) instead of giving up.
* a JSONL checkpoint **journal**: every successfully completed point is
  appended as one line (deterministic :func:`point_key` + the result
  snapshot).  With ``resume=True`` a re-run serves journaled points
  without simulating, so an n-point sweep interrupted after k completions
  runs exactly n−k points.  The journal format is tolerant by
  construction — unknown lines and a truncated final line (the crash
  case) are skipped, and only successes are recorded, so failed points
  re-run on resume.

Timeouts need worker processes to kill; inline execution (``jobs=1`` or
degraded mode) runs without them, which is the documented trade-off of
graceful degradation.  The pool driver notices timeouts and pool deaths
between held-group recordings, so a hung point can be killed late by at
most one group's pre-scan.

The workers live in a :class:`WorkerPool`.  A one-shot sweep makes its
own and closes it on return; a long-lived caller (the service daemon)
passes one in with ``pool=`` so its workers stay warm across sweeps.
"""

import hashlib
import json
import os
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Optional

from repro.fsio import fsync_directory
from repro.obs.telemetry import SweepTelemetry
from repro.perf.cache import CachedSimResult, config_fingerprint
from repro.perf.sweep import (
    PointRun,
    SweepOutcome,
    _probe_cache,
    _simulate_point,
    _trace_groups,
    default_jobs,
    prewarm_traces,
)

#: Bump when the journal line format changes (old journals then resume
#: nothing, which is always safe — they just re-simulate).
JOURNAL_VERSION = 1


@dataclass
class SupervisionPolicy:
    """Knobs for :func:`run_supervised_sweep` (see the module docstring)."""

    #: Per-point wall-clock budget in seconds (None = unlimited).
    timeout: Optional[float] = None
    #: Extra attempts after the first, per point.
    retries: int = 2
    #: First retry delay in seconds; grows by ``backoff_factor`` each time.
    backoff: float = 0.25
    backoff_factor: float = 2.0
    #: Unexpected pool deaths tolerated before degrading to inline runs.
    max_pool_respawns: int = 3
    #: JSONL checkpoint journal path (None = no journal).
    journal_path: Optional[str] = None
    #: Serve already-journaled points without re-simulating.
    resume: bool = False

    def to_dict(self):
        """The reproducibility knobs as a plain JSON-able dict.

        Only the knobs that shape *how a point runs* — timeout, retries,
        backoff, max_pool_respawns — land here; the journal path and
        resume flag are per-invocation plumbing, not part of what a
        manifest needs to rerun the point the same way.
        """
        return {
            "timeout": self.timeout,
            "retries": self.retries,
            "backoff": self.backoff,
            "backoff_factor": self.backoff_factor,
            "max_pool_respawns": self.max_pool_respawns,
        }


def point_key(point):
    """Deterministic identity digest of one sweep point.

    Covers the workload recipe (name/variant/input/scale/seed), the
    instruction budgets and the config fingerprint — everything that
    determines the simulation result — without building the workload, so
    journal lookup stays cheap.  A sampling spec joins the identity only
    when set, so a sampled point can never resume from a full-detail
    journal entry (or vice versa) while pre-sampling journals keep
    matching their full-detail points.
    """
    identity = {
        "workload": point.workload,
        "variant": point.variant,
        "input": point.input_name,
        "scale": point.scale,
        "seed": point.seed,
        "max_instructions": point.max_instructions,
        "warmup_instructions": point.warmup_instructions,
        "config": (
            config_fingerprint(point.config) if point.config is not None else None
        ),
    }
    if getattr(point, "sampling", None) is not None:
        identity["sampling"] = point.sampling_plan().fingerprint()
    blob = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class SweepJournal:
    """Append-only JSONL checkpoint journal for resumable sweeps.

    One header line (version stamp), then one ``{"kind": "point", ...}``
    line per successfully completed point carrying its key and full result
    snapshot.  Appends are fsync'd per line, so after a crash at worst the
    final line is truncated — and :meth:`load` skips anything that does
    not parse as a complete point record.
    """

    def __init__(self, path):
        self.path = path

    def load(self):
        """``{key: entry}`` for every complete point line (empty if absent).

        The file is read as **bytes** and each line decoded on its own:
        a tail torn mid-record *or* mid-UTF-8-sequence (a crash can cut
        an append anywhere, including inside a multi-byte character)
        costs exactly that line — a text-mode read would raise
        ``UnicodeDecodeError`` for the whole file instead.
        """
        entries = {}
        try:
            fh = open(self.path, "rb")
        except OSError:
            return entries
        with fh:
            for raw in fh.read().splitlines():
                if not raw.strip():
                    continue
                try:
                    doc = json.loads(raw.decode("utf-8"))
                except (UnicodeDecodeError, ValueError):
                    continue  # truncated tail from an interrupted append
                if (
                    isinstance(doc, dict)
                    and doc.get("kind") == "point"
                    and doc.get("version", JOURNAL_VERSION) == JOURNAL_VERSION
                    and isinstance(doc.get("key"), str)
                    and isinstance(doc.get("payload"), dict)
                ):
                    entries[doc["key"]] = doc
        return entries

    def open(self, total):
        """Ensure the journal exists and starts with a header line."""
        if os.path.exists(self.path) and os.path.getsize(self.path) > 0:
            return
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._append({
            "kind": "header",
            "version": JOURNAL_VERSION,
            "total": total,
            "created": time.time(),
        })

    def record(self, key, label, payload, elapsed, seconds=0.0, attempts=0,
               resources=None, trace=None):
        self._append({
            "kind": "point",
            "version": JOURNAL_VERSION,
            "key": key,
            "label": label,
            "elapsed": elapsed,
            "seconds": seconds,
            "attempts": attempts,
            "resources": resources,
            "trace": trace,
            "payload": payload,
        })

    def _append(self, doc):
        created = not os.path.exists(self.path)
        with open(self.path, "a") as fh:
            fh.write(json.dumps(doc) + "\n")
            fh.flush()
            # flush() alone only reaches the OS page cache; the journal
            # is the resume checkpoint, so a crash must not be able to
            # take completed-point lines with it.
            os.fsync(fh.fileno())
        if created:
            fsync_directory(self.path)


def _supervised_simulate_point(point, spool_dir=None, key=None,
                               trace_store=None, cache=None):
    """Pool-worker entry point: fault hook + the plain point simulation.

    The fault hook is how the fault-injection tests make a *worker* die or
    hang mid-sweep (armed via environment variables, one-shot via a token
    file — see :func:`repro.rel.inject.maybe_trip_worker_fault`); it is a
    no-op unless explicitly armed.  Deliberately not called on the inline
    path, where "kill the worker" would kill the caller.
    """
    from repro.rel.inject import maybe_trip_worker_fault

    maybe_trip_worker_fault()
    return _simulate_point(point, spool_dir, key, trace_store, cache)


class _Task:
    """Mutable supervision state for one not-yet-settled point."""

    __slots__ = ("index", "point", "key", "attempts", "not_before",
                 "started")

    def __init__(self, index, point, key):
        self.index = index
        self.point = point
        self.key = key
        self.attempts = 0
        self.not_before = 0.0
        self.started = 0.0


class _PoolRestart(Exception):
    """Internal: tear the current pool down and start a fresh one."""

    def __init__(self, unexpected):
        self.unexpected = unexpected  # counts toward max_pool_respawns


def _backoff_delay(policy, attempt):
    return policy.backoff * (policy.backoff_factor ** max(0, attempt - 1))


def _exit_with_parent():
    """Pool-worker initializer: exit as soon as the parent is gone.

    An idle worker blocks on its call queue, whose write end it holds
    itself, so it would outlive a SIGKILLed parent forever.  A daemon
    thread polls the parent pid instead and ends the worker once it is
    reparented.
    """
    import threading

    parent = os.getppid()

    def watch():
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


class WorkerPool:
    """A lazily spawned ``ProcessPoolExecutor`` that can outlive one sweep.

    :meth:`executor` forks *jobs* workers on first use; :meth:`discard`
    drops a broken or killed pool so the next use spawns a fresh one;
    ``spawns`` counts the pools forked so far.  The sweep engine makes
    a throwaway one per sweep unless given one with ``pool=``.
    """

    def __init__(self, jobs):
        self.jobs = max(1, int(jobs))
        self.spawns = 0
        self._executor = None

    @property
    def live(self):
        """True while a forked pool is ready, so using it forks nothing."""
        return self._executor is not None

    def executor(self):
        """The live executor, forking a fresh pool if there is none."""
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs, initializer=_exit_with_parent,
            )
            # The executor forks at its first submit; a no-op forks the
            # workers now, before this process records a warm trace.  A
            # broken pool shows in the sweep's own futures, not this one.
            self._executor.submit(int)
            self.spawns += 1
        return self._executor

    def discard(self, kill=False):
        """Drop the current pool; *kill* SIGKILLs its workers first.

        The kill reclaims hung points.  ``_processes`` is a CPython
        implementation detail, so without it the kill falls back to a
        plain shutdown; the BrokenProcessPool handling works either way.
        """
        executor, self._executor = self._executor, None
        if executor is None:
            return
        if kill:
            processes = getattr(executor, "_processes", None) or {}
            for process in list(processes.values()):
                try:
                    process.kill()
                except Exception:
                    pass
        executor.shutdown(wait=False)

    def close(self):
        """Shut the pool down, waiting for its workers to exit."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)


def run_supervised_sweep(points, jobs=None, cache=None, policy=None,
                         progress=None, telemetry=None, executor=None,
                         trace_store=None, pool=None):
    """Run every point under supervision; ``[SweepOutcome]`` in order.

    *jobs* ``<= 1`` runs inline, which is also the reference path the
    determinism tests compare the pool against; otherwise every point
    runs in a worker, so even a lone point gets its timeout.  *pool* (a
    :class:`WorkerPool`) puts those workers in the caller's long-lived
    pool, at most ``pool.jobs`` points at a time, and leaves it open;
    without it the sweep spawns its own pool and closes it on return.
    With *cache* (a :class:`~repro.perf.cache.ResultCache`), hits skip
    simulation entirely and misses are stored by the worker that ran
    them; with *jobs* ``> 1`` the parent probes a point itself only
    while no pool is live (see the module docstring).
    *progress*, if given, is called as ``progress(outcome, done_count,
    total)`` as each point settles (completion order, not input order).
    With the default :class:`SupervisionPolicy` and healthy workers this
    is the plain sweep: supervision only decides *whether and where* a
    point runs, never what it computes.

    *executor* is ``None`` or ``"process"``, both this engine; any other
    value raises :class:`ValueError`.

    *telemetry* — a spool directory or
    :class:`~repro.obs.telemetry.SweepTelemetry` (default: enabled when
    ``$REPRO_TELEMETRY_DIR`` is set) — makes the sweep observable from
    outside the process: workers heartbeat into per-pid spools, the
    parent records cache/journal/retry/timeout/respawn events and the
    authoritative per-point outcomes, and ``repro top`` / ``repro tail``
    render them live.  Results are byte-identical with it on or off.

    *trace_store* (a :class:`~repro.perf.tracestore.TraceStore` or a
    store root path) turns on warm-trace reuse for sampled points: the
    parent records each trace group's shared trace while a pool
    simulates earlier groups (see the module docstring), runners load
    it instead of re-scanning, and each point's trace provenance lands
    on its outcome and journal line.  Results are byte-identical with
    reuse on or off.
    """
    if executor not in (None, "process"):
        raise ValueError("unknown sweep executor %r" % (executor,))
    points = list(points)
    telemetry = SweepTelemetry.resolve(telemetry)
    policy = SupervisionPolicy() if policy is None else policy
    jobs = default_jobs() if jobs is None else max(1, int(jobs))
    if isinstance(trace_store, str):
        from repro.perf.tracestore import TraceStore

        trace_store = TraceStore(root=trace_store)
    outcomes = [None] * len(points)
    total = len(points)
    done = 0

    if telemetry is not None:
        telemetry.sweep_started(
            total, jobs, label="run_supervised_sweep",
            policy={"timeout": policy.timeout, "retries": policy.retries,
                    "journal": policy.journal_path, "resume": policy.resume},
        )

    def settle(index, outcome, key=None):
        nonlocal done
        outcomes[index] = outcome
        done += 1
        if telemetry is not None:
            telemetry.point_settled(outcome, key=key)
        if progress is not None:
            progress(outcome, done, total)

    def settle_hit(index, point, key, result, cache_key):
        if telemetry is not None:
            telemetry.emit("cache_hit", point=point.label(), key=key)
        settle(index, SweepOutcome(
            point=point, result=result, cached=True, cache_key=cache_key,
        ), key=key)

    journal = SweepJournal(policy.journal_path) if policy.journal_path else None
    journaled = journal.load() if (journal is not None and policy.resume) else {}

    # Serve journal entries and the cache hits the parent probes up front;
    # the rest become tasks.  The parent probes only while that may save
    # a fork, and stops at the first miss (or build failure): that point
    # forks the pool, and the workers probe the rest.
    probing = cache is not None and jobs > 1 and (pool is None
                                                  or not pool.live)
    tasks = deque()
    for index, point in enumerate(points):
        if point.config is None:
            from repro.core import sandy_bridge_config

            point.config = sandy_bridge_config()
        key = point_key(point)
        entry = journaled.get(key)
        if entry is not None:
            if telemetry is not None:
                telemetry.emit("journal_resume", point=point.label(), key=key)
            settle(index, SweepOutcome(
                point=point,
                result=CachedSimResult(entry["payload"], config=point.config),
                elapsed=entry.get("elapsed", 0.0),
                seconds=entry.get("seconds", 0.0),
                resources=entry.get("resources"),
                trace=entry.get("trace"),
                resumed=True,
            ), key=key)
            continue
        if probing:
            try:
                cache_key, hit = _probe_cache(cache, point)
            except Exception:
                # The worker hits the same error and reports it, under
                # the retry policy like any other point error.
                hit = None
            if hit is not None:
                settle_hit(index, point, key, hit, cache_key)
                continue
            probing = False
        tasks.append(_Task(index, point, key))

    if journal is not None and tasks:
        journal.open(total)

    # Sampled groups wait in *held* until their trace is recorded.
    pending, held = (_trace_groups(tasks, lambda task: task.point)
                     if trace_store is not None else (tasks, []))
    pending, held = deque(pending), deque(held)

    def complete(task, run, elapsed, timed_out=False, degraded=False):
        if run.cached:
            settle_hit(task.index, task.point, task.key,
                       CachedSimResult(run.payload, config=task.point.config),
                       run.cache_key)
            return
        if run.error is not None:
            outcome = SweepOutcome(
                point=task.point, error=run.error, elapsed=elapsed,
                worker_pid=run.pid, attempts=task.attempts,
                seconds=run.seconds, resources=run.resources,
                timed_out=timed_out, degraded=degraded,
            )
        else:
            if journal is not None:
                journal.record(
                    task.key, task.point.label(), run.payload, elapsed,
                    seconds=run.seconds, attempts=task.attempts,
                    resources=run.resources, trace=run.trace,
                )
            outcome = SweepOutcome(
                point=task.point,
                result=CachedSimResult(run.payload, config=task.point.config),
                elapsed=elapsed, worker_pid=run.pid, attempts=task.attempts,
                seconds=run.seconds, resources=run.resources,
                degraded=degraded, trace=run.trace, cache_key=run.cache_key,
            )
        settle(task.index, outcome, key=task.key)

    if jobs <= 1:
        _run_inline(pending, held, policy, complete, telemetry=telemetry,
                    trace_store=trace_store, cache=cache)
    else:
        own_pool = pool is None
        if own_pool:
            pool = WorkerPool(min(jobs, len(tasks)))
        try:
            _run_pool(pending, held, pool, policy, complete,
                      telemetry=telemetry, trace_store=trace_store,
                      cache=cache)
        finally:
            if own_pool:
                pool.close()
    if telemetry is not None:
        telemetry.sweep_finished(outcomes)
    return outcomes


def _release_group(held, pending, trace_store, telemetry, cache):
    """Record the next held group's warm trace here; queue its tasks."""
    group = held.popleft()
    prewarm_traces([task.point for task in group], trace_store,
                   telemetry=telemetry, cache=cache)
    pending.extend(group)


def _run_inline(pending, held, policy, complete, degraded=False,
                telemetry=None, trace_store=None, cache=None):
    """Serial in-process execution with the same retry discipline.

    No per-point timeout here: there is no worker process to kill.  This
    is both the ``jobs=1`` reference path and the degraded last resort.
    A held group is recorded once no task is ready.
    """
    spool_dir = telemetry.directory if telemetry is not None else None
    while pending or held:
        if not pending:
            _release_group(held, pending, trace_store, telemetry, cache)
        task = pending.popleft()
        while True:
            task.attempts += 1
            start = time.monotonic()
            run = _simulate_point(task.point, spool_dir, task.key,
                                  trace_store, cache)
            elapsed = time.monotonic() - start
            if run.error is None or task.attempts > policy.retries:
                complete(task, run, elapsed, degraded=degraded)
                break
            if telemetry is not None:
                telemetry.emit("retry", point=task.point.label(),
                               key=task.key, attempt=task.attempts)
            time.sleep(_backoff_delay(policy, task.attempts))


def _run_pool(pending, held, pool, policy, complete, telemetry=None,
              trace_store=None, cache=None):
    """Pool execution with restart-on-death and bounded degradation.

    The respawn budget is this sweep's own, however many pools *pool*
    spawned before it.  *pending* and *held* outlive each pool.
    """
    respawns = 0
    while pending or held:
        try:
            _drive_pool(pending, held, pool, policy, complete,
                        telemetry=telemetry, trace_store=trace_store,
                        cache=cache)
        except _PoolRestart as restart:
            if restart.unexpected:
                respawns += 1
                remaining = len(pending) + sum(map(len, held))
                if respawns > policy.max_pool_respawns:
                    if telemetry is not None:
                        telemetry.emit("degraded", respawns=respawns,
                                       remaining=remaining)
                    _run_inline(pending, held, policy, complete,
                                degraded=True, telemetry=telemetry,
                                trace_store=trace_store, cache=cache)
                    return
                if telemetry is not None:
                    telemetry.emit("pool_respawn", respawns=respawns,
                                   remaining=remaining)
                time.sleep(_backoff_delay(policy, respawns))


def _requeue_or_fail(task, pending, policy, complete, error, elapsed,
                     timed_out=False, telemetry=None):
    if task.attempts <= policy.retries:
        task.not_before = time.monotonic() + _backoff_delay(policy, task.attempts)
        if telemetry is not None:
            telemetry.emit("retry", point=task.point.label(), key=task.key,
                           attempt=task.attempts, timed_out=timed_out)
        pending.append(task)
    else:
        complete(task, PointRun(None, error, None, 0.0, None), elapsed,
                 timed_out=timed_out)


def _drive_pool(pending, held, pool, policy, complete, telemetry=None,
                trace_store=None, cache=None):
    """Run *pool* until no task is left or the pool must be replaced.

    At most ``pool.jobs`` tasks are in flight at once, so a submitted
    task starts (almost) immediately and its submit time is an honest
    start time for the wall-clock timeout.  When nothing more can be
    dispatched, a held group is recorded and finished futures are
    collected without blocking; ``wait`` blocks only once none is held.
    A drained pool is left running for the next sweep; a broken or
    killed one is discarded.
    """
    store_root = trace_store.root if trace_store is not None else None
    spool_dir = telemetry.directory if telemetry is not None else None
    executor = pool.executor()
    inflight = {}

    def abandon(error_text, unexpected):
        """The pool is gone: requeue/fail every in-flight task, restart."""
        now = time.monotonic()
        for _future, task in list(inflight.items()):
            _requeue_or_fail(task, pending, policy, complete,
                             error_text, now - task.started,
                             telemetry=telemetry)
        inflight.clear()
        pool.discard()
        raise _PoolRestart(unexpected)

    while pending or inflight or held:
        now = time.monotonic()
        while pending and len(inflight) < pool.jobs:
            if pending[0].not_before > now:
                break
            task = pending.popleft()
            task.attempts += 1
            task.started = now
            try:
                future = executor.submit(_supervised_simulate_point,
                                         task.point, spool_dir, task.key,
                                         store_root, cache)
            except BrokenProcessPool:
                task.attempts -= 1  # never launched; refund
                pending.appendleft(task)
                abandon("worker pool broke before submission:\n"
                        + traceback.format_exc(), unexpected=True)
            inflight[future] = task

        if held:
            _release_group(held, pending, trace_store, telemetry, cache)
            tick = 0
        elif not inflight:
            # Everything pending is backoff-gated; sleep to the gate.
            soonest = min(task.not_before for task in pending)
            time.sleep(min(max(soonest - now, 0.0), 1.0) or 0.01)
            continue
        elif policy.timeout is None:
            tick = 0.1 if pending else None
        else:
            deadline = min(t.started for t in inflight.values()) + policy.timeout
            tick = max(0.01, min(deadline - now, 0.5))
        finished, _ = wait(set(inflight), timeout=tick,
                           return_when=FIRST_COMPLETED)
        now = time.monotonic()

        for future in finished:
            task = inflight.pop(future)
            try:
                run = future.result()
            except BrokenProcessPool:
                elapsed = now - task.started
                _requeue_or_fail(
                    task, pending, policy, complete,
                    "worker process died (BrokenProcessPool):\n"
                    + traceback.format_exc(),
                    elapsed, telemetry=telemetry,
                )
                abandon("worker pool died; point was in flight when the "
                        "pool broke", unexpected=True)
            except BaseException:
                run = PointRun(None, traceback.format_exc(), None,
                               0.0, None)
            if run.error is not None and task.attempts <= policy.retries:
                task.not_before = now + _backoff_delay(policy, task.attempts)
                if telemetry is not None:
                    telemetry.emit("retry", point=task.point.label(),
                                   key=task.key, attempt=task.attempts)
                pending.append(task)
            else:
                complete(task, run, now - task.started)

        if policy.timeout is None:
            continue
        expired = [
            (future, task) for future, task in inflight.items()
            if now - task.started >= policy.timeout and not future.done()
        ]
        if not expired:
            continue
        # Kill the whole pool: there is no portable way to kill one
        # worker's task, and the pool is cheap to respawn relative to
        # a simulation point.
        pool.discard(kill=True)
        for future, task in expired:
            inflight.pop(future)
            if telemetry is not None:
                telemetry.emit("timeout", point=task.point.label(),
                               key=task.key, attempt=task.attempts,
                               timeout=policy.timeout)
            _requeue_or_fail(
                task, pending, policy, complete,
                "point timed out after %.1fs (worker killed)"
                % policy.timeout,
                now - task.started, timed_out=True,
                telemetry=telemetry,
            )
        for future, task in list(inflight.items()):
            # Innocent bystanders: refund the attempt, run again first.
            inflight.pop(future)
            task.attempts -= 1
            pending.appendleft(task)
        raise _PoolRestart(unexpected=False)
