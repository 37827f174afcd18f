"""The simulation-service daemon: a supervised worker fleet over the WAL.

One daemon process owns one :class:`~repro.serve.queue.JobQueue` and
turns its submitted jobs into supervised sweeps:

* **leasing** — the daemon holds at most ``batch`` leased jobs
  (running plus ready), leased fairly across tenants (the queue's
  round-robin) and gated by a per-tenant **token bucket** (``rate``
  jobs/second, ``burst`` capacity) so one chatty client cannot
  monopolize the fleet;
* **execution** — each scheduling round is one stream through
  :func:`repro.rel.supervise.run_supervised_sweep`: it leases more as
  workers free up and writes each job's ``done``/``failed`` record as
  soon as that job settles, so no worker waits for a batch to end.  The
  round inherits the whole supervision discipline: per-job wall-clock
  timeouts, bounded retries with exponential backoff, pool SIGKILL +
  respawn, graceful degradation to inline execution after
  ``max_pool_respawns`` (per round: a degraded round finishes what it
  holds and leases nothing more) — and results dedup into the shared
  :class:`~repro.perf.cache.ResultCache`, which the workers probe and
  fill (each ``done`` record names its entry).  With ``jobs > 1`` every
  round runs in the daemon's one
  :class:`~repro.rel.supervise.WorkerPool`, forked at the first round
  and kept warm until the daemon exits (a timeout kill or a worker
  death replaces it); every round reports through one telemetry
  session;
* **liveness** — the daemon heartbeats into the
  :mod:`repro.obs.telemetry` spool (role ``daemon``) with queue depth,
  lease count and counters, alongside the sweep/worker events the
  supervised sweep already emits, so ``repro tail`` and ``GET /events``
  see the whole fleet; heartbeats and lease expiry keep running while a
  round streams;
* **backpressure** — the HTTP API (and direct submits that opt in)
  sheds new work beyond ``max_depth`` live jobs with an explicit
  reject, counted in ``shed_total``, instead of accepting work it
  cannot durably finish;
* **drain** — SIGTERM (or ``POST /drain``) stops leasing, finishes
  the jobs already leased (running and ready), releases nothing to
  limbo (anything still leased is durably returned to ``submitted``),
  writes a final heartbeat and exits 0.  SIGKILL needs no cooperation
  at all: leases expire and the next daemon picks the jobs back up —
  the chaos suite proves it.

Crash safety is the queue's job; this module's job is to make sure the
daemon's *decisions* (what to lease, when to refuse, how to stop) are
themselves observable and fault-injectable
(:func:`repro.rel.inject.maybe_trip_daemon_fault` at the ``lease`` and
``heartbeat`` fault points).
"""

import os
import signal
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.fsio import atomic_replace
from repro.obs.telemetry import SweepTelemetry, TelemetrySpool
from repro.perf.cache import ResultCache
from repro.rel.inject import maybe_trip_daemon_fault
from repro.rel.supervise import (
    SupervisionPolicy,
    WorkerPool,
    run_supervised_sweep,
)
from repro.serve.queue import JobQueue, point_from_spec

#: WAL file name inside a service directory.
WAL_NAME = "wal.jsonl"
#: Telemetry spool subdirectory.
SPOOL_NAME = "spool"
#: Pid file the daemon maintains (drain targets it).
PID_NAME = "daemon.pid"
#: Where the HTTP API writes its bound address (host:port).
ADDR_NAME = "http.addr"


def service_paths(root):
    """The file layout of one service directory."""
    return {
        "root": root,
        "wal": os.path.join(root, WAL_NAME),
        "spool": os.path.join(root, SPOOL_NAME),
        "pid": os.path.join(root, PID_NAME),
        "addr": os.path.join(root, ADDR_NAME),
    }


@dataclass
class ServiceConfig:
    """Knobs of one daemon (CLI flags map 1:1; see ``repro serve``)."""

    #: Worker processes in the daemon's pool, which every round shares.
    jobs: int = 2
    #: The lease window: jobs the daemon holds leased at once (running
    #: plus ready).  A round's first lease takes up to this many; the
    #: round then leases more as jobs settle.
    batch: int = 4
    #: Lease duration; a daemon dead longer than this loses its claims.
    lease_seconds: float = 300.0
    #: Idle poll interval between scheduling rounds.
    poll_interval: float = 0.2
    #: Live jobs (submitted + leased) beyond which new work is shed.
    max_depth: Optional[int] = None
    #: Token-bucket refill rate per tenant (jobs/second; None = off).
    rate: Optional[float] = None
    #: Token-bucket capacity per tenant.
    burst: int = 4
    #: Lease expiries tolerated per job before it goes dead.
    max_lease_attempts: int = 3
    #: Exit once the queue has no live jobs (batch mode / CI smoke).
    once: bool = False
    #: Skip the shared result cache.
    no_cache: bool = False
    #: Per-job supervision (timeout/retries/backoff/max_pool_respawns).
    policy: SupervisionPolicy = field(default_factory=SupervisionPolicy)


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second up to ``burst``."""

    __slots__ = ("rate", "burst", "tokens", "stamp")

    def __init__(self, rate, burst):
        self.rate = rate
        self.burst = burst
        self.tokens = float(burst)
        self.stamp = time.monotonic()

    def take(self, now=None):
        now = time.monotonic() if now is None else now
        self.tokens = min(self.burst,
                          self.tokens + (now - self.stamp) * self.rate)
        self.stamp = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class ServiceDaemon:
    """One daemon over one service directory (see the module docstring)."""

    def __init__(self, root, config=None):
        self.root = root
        self.config = config or ServiceConfig()
        self.paths = service_paths(root)
        os.makedirs(root, exist_ok=True)
        self.queue = JobQueue(
            self.paths["wal"],
            max_lease_attempts=self.config.max_lease_attempts,
        )
        self.cache = None if self.config.no_cache else ResultCache()
        self.spool = TelemetrySpool(self.paths["spool"], role="daemon")
        # Both are lazy: the pool forks and the session first reads the
        # spool at the first round, then serve every later one.
        self.pool = WorkerPool(self.config.jobs)
        self.telemetry = SweepTelemetry(self.paths["spool"])
        self.counters = {
            "leased_total": 0,
            "done_total": 0,
            "failed_total": 0,
            "expired_total": 0,
            "shed_total": 0,
            "throttled_total": 0,
            "rounds_total": 0,
            "heartbeats_total": 0,
            "pool_spawns_total": 0,
        }
        self.draining = False
        self.started = time.time()
        self._buckets = {}
        self._last_heartbeat = 0.0
        self._housekept = float("-inf")
        # The jobs the current round holds, by id() of their sweep point.
        self._round = {}

    # -- lifecycle ------------------------------------------------------

    def _write_pidfile(self):
        # Atomic publish: ``repro jobs``/``drain`` read this file while
        # the daemon may be (re)writing it, and a truncating write has
        # a window where they would see an empty or torn pid.
        atomic_replace(self.paths["pid"], "%d\n" % os.getpid(),
                       durable=False)

    def _clear_runtime_files(self):
        for name in ("pid", "addr"):
            try:
                os.unlink(self.paths[name])
            except OSError:
                pass

    def request_drain(self, why="signal"):
        """Stop leasing; the round finishes what it holds (idempotent)."""
        if not self.draining:
            self.draining = True
            self.spool.emit("daemon_drain", why=why)

    def _install_signal_handlers(self):
        def handler(signum, _frame):
            self.request_drain(why=signal.Signals(signum).name)

        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, handler)

    # -- scheduling -----------------------------------------------------

    def _admit(self, job):
        """Token-bucket gate consulted by the queue's fair lease."""
        if self.config.rate is None:
            return True
        bucket = self._buckets.get(job.tenant)
        if bucket is None:
            bucket = self._buckets[job.tenant] = TokenBucket(
                self.config.rate, self.config.burst
            )
        if bucket.take():
            return True
        self.counters["throttled_total"] += 1
        return False

    def submit(self, spec, tenant="default"):
        """Accept (or shed) one job on behalf of the HTTP API.

        Returns ``(job, created, shed)`` exactly like
        :meth:`JobQueue.submit`; a shed submit only bumps the counter —
        nothing touches the WAL.
        """
        job, created, shed = self.queue.submit(
            spec, tenant=tenant, max_depth=self.config.max_depth
        )
        if shed:
            self.counters["shed_total"] += 1
            self.spool.emit("daemon_shed", tenant=tenant,
                            depth=self.queue.depth())
        return job, created, shed

    def heartbeat(self, force=False):
        """Periodic liveness record in the spool (~1/s, or forced)."""
        now = time.time()
        if not force and now - self._last_heartbeat < 1.0:
            return
        delay = maybe_trip_daemon_fault("heartbeat")
        if delay:
            time.sleep(delay)
        self._last_heartbeat = time.time()
        counts = self.queue.counts()
        self.counters["heartbeats_total"] += 1
        self.spool.emit(
            "daemon_heartbeat", counts=counts, counters=dict(self.counters),
            draining=self.draining, uptime=round(now - self.started, 3),
        )

    def health(self):
        """The ``GET /healthz`` document (also useful for tests)."""
        counts = self.queue.counts()
        return {
            "ok": True,
            "pid": os.getpid(),
            "draining": self.draining,
            "uptime": round(time.time() - self.started, 3),
            "queue": counts,
            "counters": dict(self.counters),
            "config": {
                "jobs": self.config.jobs,
                "batch": self.config.batch,
                "lease_seconds": self.config.lease_seconds,
                "max_depth": self.config.max_depth,
                "rate": self.config.rate,
                "burst": self.config.burst,
                "policy": self.config.policy.to_dict(),
            },
        }

    def run_round(self):
        """One scheduling round; returns how many jobs settled.

        The round's first lease takes up to ``batch`` jobs and starts one
        supervised sweep over them.  That sweep is a stream: as workers
        free up it asks :meth:`_refill` for more, which keeps the daemon
        holding ``batch`` leases (running plus ready), and each job's
        ``done``/``failed`` record is written the moment the job settles
        (:meth:`_settle`).  The round ends once nothing it leased is left
        and nothing more can be leased.
        """
        self.counters["rounds_total"] += 1
        settled = self.counters["done_total"] + self.counters["failed_total"]
        self._round = {}
        self._housekeep(force=True)
        points = self._lease()
        if points:
            run_supervised_sweep(
                points,
                jobs=self.config.jobs,
                cache=self.cache,
                policy=self.config.policy,
                progress=self._settle,
                telemetry=self.telemetry,
                pool=self.pool,
                refill=self._refill,
            )
        return (self.counters["done_total"] + self.counters["failed_total"]
                - settled)

    def _housekeep(self, force=False):
        """Fold the WAL, expire dead leases and heartbeat.

        Runs at most once per ``poll_interval`` unless *force*d; the
        heartbeat itself is rate-limited to about once a second.  The
        jobs this round holds are alive by definition, so their leases
        are never expired here, however long they run.
        """
        now = time.monotonic()
        if not force and now - self._housekept < self.config.poll_interval:
            return
        self._housekept = now
        self.queue.poll()
        expired = self.queue.expire_leases(
            keep={job.job_id for job in self._round.values()})
        if expired:
            self.counters["expired_total"] += len(expired)
            self.spool.emit("daemon_expired", jobs=expired)
        self.heartbeat()

    def _refill(self):
        """The round's stream intake: housekeeping, then top the leases up."""
        self._housekeep()
        return self._lease()

    def _lease(self):
        """Lease jobs until this round holds ``batch``; their points.

        Nothing is leased while draining.  A job whose spec does not
        build fails at once; the next refill leases into its slot.
        """
        room = self.config.batch - len(self._round)
        if self.draining or room <= 0:
            return []
        jobs = self.queue.lease(
            owner=os.getpid(),
            limit=room,
            lease_seconds=self.config.lease_seconds,
            admit=self._admit,
        )
        if not jobs:
            return []
        self.counters["leased_total"] += len(jobs)
        self.spool.emit("daemon_lease",
                        jobs=[job.job_id for job in jobs],
                        tenants=sorted({job.tenant for job in jobs}))
        # The injected mid-lease crash point: the leases above are
        # durable, the work below has not happened — exactly the window
        # recovery must close.
        maybe_trip_daemon_fault("lease")
        points = []
        for job in jobs:
            try:
                point = point_from_spec(job.spec)
            except Exception as exc:
                self.queue.fail(job.job_id, "unbuildable job spec: %s" % exc)
                self.counters["failed_total"] += 1
                continue
            self._round[id(point)] = job
            points.append(point)
        return points

    def _settle(self, outcome, _done, _total):
        """Write one settled job's terminal WAL record."""
        job = self._round.pop(id(outcome.point))
        if outcome.ok:
            self.queue.complete(
                job.job_id, outcome.result.payload,
                cache_key=outcome.cache_key,
                seconds=outcome.seconds,
                supervision=self.config.policy.to_dict(),
            )
            self.counters["done_total"] += 1
        else:
            self.queue.fail(job.job_id, outcome.error or "failed")
            self.counters["failed_total"] += 1
        self.counters["pool_spawns_total"] = self.pool.spawns

    def drain_leases(self):
        """Durably return every lease this daemon still holds."""
        released = []
        for job in list(self.queue.jobs.values()):
            if job.state == "leased" and job.lease_owner == os.getpid():
                if self.queue.release(job.job_id):
                    released.append(job.job_id)
        if released:
            self.spool.emit("daemon_release", jobs=released)
        return released

    def run_forever(self, api_server=None):
        """The daemon main loop; returns the process exit code (0).

        *api_server* — an already-bound
        :class:`~repro.serve.api.ServiceAPIServer` — is started on its
        own thread and shut down on exit.
        """
        self._write_pidfile()
        self._install_signal_handlers()
        self.spool.emit(
            "daemon_start", root=self.root, config=self.health()["config"],
        )
        api_thread = None
        if api_server is not None:
            import threading

            api_thread = threading.Thread(
                target=api_server.serve_forever, daemon=True
            )
            api_thread.start()
        try:
            while True:
                settled = self.run_round()
                if self.draining:
                    # run_round returns once nothing it leased is running
                    # or ready: release whatever is still leased to us
                    # and stop.
                    break
                if self.config.once and self.queue.counts()["depth"] == 0:
                    break
                if not settled:
                    time.sleep(self.config.poll_interval)
        finally:
            self.drain_leases()
            self.pool.close()
            self.telemetry.close()
            self.heartbeat(force=True)
            self.spool.emit(
                "daemon_stop", draining=self.draining,
                counts=self.queue.counts(), counters=dict(self.counters),
            )
            self.spool.close()
            if api_server is not None:
                api_server.shutdown()
                if api_thread is not None:
                    api_thread.join(timeout=5.0)
            self._clear_runtime_files()
        return 0


def read_pidfile(root):
    """The daemon pid recorded in *root*, or ``None``."""
    try:
        with open(service_paths(root)["pid"]) as fh:
            return int(fh.read().strip())
    except (OSError, ValueError):
        return None


def read_address(root):
    """The HTTP API's ``host:port`` recorded in *root*, or ``None``."""
    try:
        with open(service_paths(root)["addr"]) as fh:
            value = fh.read().strip()
    except OSError:
        return None
    return value or None


def pid_alive(pid):
    if pid is None:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - foreign-owner pid
        return True
    return True


def drain(root, timeout=60.0, poll=0.1):
    """Signal the daemon in *root* to drain; wait for a clean exit.

    Returns a report dict: whether a daemon was found, whether it
    exited within *timeout*, and the queue counts afterwards — the
    ``repro drain`` contract is exit 0 iff the daemon stopped with zero
    leased jobs.
    """
    paths = service_paths(root)
    pid = read_pidfile(root)
    found = pid_alive(pid)
    if found:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            found = False
    deadline = time.monotonic() + timeout
    exited = not found
    while not exited and time.monotonic() < deadline:
        # The daemon removes its pidfile as it exits; check that as well
        # as liveness, because an exited-but-unreaped daemon (its parent
        # has not waited on it yet) is a zombie that kill(pid, 0) still
        # reports alive.
        if read_pidfile(root) is None or not pid_alive(pid):
            exited = True
            break
        time.sleep(poll)
    queue = JobQueue(paths["wal"])
    counts = queue.counts()
    return {
        "root": root,
        "pid": pid,
        "found": found,
        "exited": exited,
        "queue": counts,
        "clean": exited and counts["leased"] == 0,
    }


def wait_for_job(queue, job_id, timeout=300.0, poll=0.2):
    """Poll *queue* until *job_id* reaches a terminal state (or timeout)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        queue.poll()
        job = queue.get(job_id)
        if job is not None and not job.live:
            return job
        time.sleep(poll)
    return queue.get(job_id)
