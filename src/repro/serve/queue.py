"""Durable write-ahead job queue for the simulation service.

The queue is one append-only JSONL file (the WAL): every state
transition of every job is a single fsync'd line, so the queue's state
after a crash is exactly the fold of the complete lines on disk.  No
accepted job is ever lost — ``submit`` returns only after its record is
durable — and replay is tolerant by construction, reusing the
checkpoint-journal rules from :mod:`repro.rel.supervise`:

* a torn final line (a writer crashed mid-append) is skipped;
* a line that ends in a partial UTF-8 sequence is skipped the same way
  (the WAL is read as bytes and decoded per line);
* unknown operations and foreign versions are ignored, never fatal;
* before every append, an unterminated tail is sealed with a newline
  so the record starts a fresh line instead of concatenating onto
  garbage (:func:`repro.fsio.append_record`).

Job lifecycle::

    submitted --lease--> leased --done----> done      (terminal)
                          |  \\---failed--> failed    (terminal)
                          |  \\--release--> submitted (drain)
                          \\----expire----> submitted (dead worker)
                                            ... after max_lease_attempts
                                            expiries: dead (terminal)

Job identity is a **content hash** of the simulation point the job
describes (:func:`job_key`, built on :func:`repro.rel.supervise.point_key`),
so two clients submitting the same point dedup onto one job — and the
job's result is stored under the point's
:class:`~repro.perf.cache.ResultCache` key, so the service and direct
sweeps share one result namespace.

**Lease expiry** is what makes a dead worker harmless: a lease carries a
wall-clock deadline; when it passes without a terminal record the job
returns to ``submitted`` (one more attempt burned).  A job whose leases
keep expiring — the poison-job / crash-loop case — goes ``dead`` after
``max_lease_attempts`` so it cannot wedge the daemon forever.

Cross-process safety: every mutating operation holds an ``flock`` on
``<wal>.lock`` and first folds any lines appended by other processes
(:meth:`JobQueue.poll`), so ``repro submit --queue`` can enqueue work
while the daemon is live (or down — the next daemon replays it).
Within one process a lock serializes the fold, so the daemon's loop and
its HTTP handler threads can share one queue.
"""

import os
import threading
import time
from contextlib import contextmanager

from repro.fsio import append_record, flock_exclusive, read_records

#: Bump when the WAL line format changes; foreign-version lines are
#: ignored on replay (never misinterpreted).
WAL_VERSION = 1

#: Job states.  ``submitted`` and ``leased`` are live; the rest terminal.
LIVE_STATES = ("submitted", "leased")
TERMINAL_STATES = ("done", "failed", "dead")

#: Spec fields that define a job's identity (everything that determines
#: the simulation result), with their defaults.  Unknown fields are
#: rejected at submit time so a typo cannot silently fork identities.
SPEC_FIELDS = {
    "workload": None,
    "variant": "base",
    "input": None,
    "scale": 0.25,
    "seed": 1,
    "max_instructions": None,
    "warmup_instructions": 0,
    "sampling": None,
    "config": "baseline",
    "rob": None,
    "predictor": None,
}


def normalize_spec(spec):
    """Fill defaults and validate field names; returns a canonical dict."""
    if not isinstance(spec, dict):
        raise ValueError("job spec must be a JSON object")
    unknown = sorted(set(spec) - set(SPEC_FIELDS))
    if unknown:
        raise ValueError("unknown job spec field(s): %s" % ", ".join(unknown))
    if not spec.get("workload"):
        raise ValueError("job spec needs a 'workload'")
    return {name: spec.get(name, default)
            for name, default in SPEC_FIELDS.items()}


def point_from_spec(spec):
    """The :class:`~repro.perf.sweep.SweepPoint` a job spec describes.

    The config is resolved here (named config + rob/predictor overrides,
    mirroring the CLI) so job identity covers the full config
    fingerprint, not just its name.
    """
    from repro.core.config import NAMED_CONFIGS
    from repro.perf.sweep import SweepPoint

    spec = normalize_spec(spec)
    factory = NAMED_CONFIGS.get(spec["config"])
    if factory is None:
        raise ValueError("unknown config %r (known: %s)"
                         % (spec["config"], ", ".join(sorted(NAMED_CONFIGS))))
    overrides = {}
    if spec["rob"]:
        overrides["rob_size"] = spec["rob"]
    if spec["predictor"]:
        overrides["predictor"] = spec["predictor"]
    return SweepPoint(
        workload=spec["workload"],
        variant=spec["variant"],
        input_name=spec["input"],
        config=factory(**overrides),
        scale=spec["scale"],
        seed=spec["seed"],
        max_instructions=spec["max_instructions"],
        warmup_instructions=spec["warmup_instructions"],
        sampling=spec["sampling"],
    )


def job_key(spec):
    """Content-hash identity of one job (hex digest).

    Delegates to :func:`repro.rel.supervise.point_key` on the resolved
    sweep point, so a job, its supervision-journal line and its result
    cache entry all agree on what "the same point" means.  The tenant is
    deliberately **not** part of the identity: two clients submitting
    the same point share one job (multi-client dedup).
    """
    from repro.rel.supervise import point_key

    return point_key(point_from_spec(spec))


class Job:
    """Folded state of one job across every WAL record mentioning it."""

    __slots__ = ("job_id", "spec", "tenant", "state", "attempts",
                 "lease_owner", "lease_deadline", "error", "result",
                 "cache_key", "seconds", "submitted_ts", "updated_ts",
                 "submits")

    def __init__(self, job_id, spec, tenant="default", submitted_ts=None):
        self.job_id = job_id
        self.spec = spec
        self.tenant = tenant
        self.state = "submitted"
        self.attempts = 0
        self.lease_owner = None
        self.lease_deadline = None
        self.error = None
        self.result = None       # the full result payload (done jobs)
        self.cache_key = None    # the ResultCache key the result landed at
        self.seconds = 0.0
        self.submitted_ts = submitted_ts
        self.updated_ts = submitted_ts
        self.submits = 1         # dedup hits: how many clients asked

    @property
    def live(self):
        return self.state in LIVE_STATES

    def to_dict(self, with_result=False):
        info = {
            "job_id": self.job_id,
            "spec": self.spec,
            "tenant": self.tenant,
            "state": self.state,
            "attempts": self.attempts,
            "lease_owner": self.lease_owner,
            "lease_deadline": self.lease_deadline,
            "error": self.error,
            "cache_key": self.cache_key,
            "seconds": self.seconds,
            "submitted_ts": self.submitted_ts,
            "updated_ts": self.updated_ts,
            "submits": self.submits,
        }
        if with_result:
            info["result"] = self.result
        return info


class JobQueue:
    """The durable queue: one WAL file plus its folded in-memory state.

    Every instance folds the WAL on construction and incrementally
    thereafter (:meth:`poll`), so independent processes — the daemon,
    ``repro submit``, ``repro jobs`` — converge on the same state from
    the same bytes.  Mutations serialize on an ``flock``; reads never
    need it (appends are atomic at the line level and replay skips the
    torn tail).  Threads of one process also share ``_mutex``: two
    unserialized polls would both read the same new lines and advance
    the offset twice, skipping the next record.
    """

    def __init__(self, path, max_lease_attempts=3):
        self.path = path
        self.max_lease_attempts = max_lease_attempts
        self._mutex = threading.RLock()
        self.jobs = {}
        self._order = []        # job ids in first-submit order
        self._offset = 0
        self._rr = 0            # round-robin cursor over tenants
        self.poll()

    # -- durability -----------------------------------------------------

    def _append(self, doc):
        """One fsync'd WAL line; the record is durable when this returns."""
        doc = dict(doc, v=WAL_VERSION, ts=time.time(), pid=os.getpid())
        return append_record(self.path, doc)

    @contextmanager
    def _lock(self):
        # The thread lock first: only its holder waits on the flock.
        with self._mutex, flock_exclusive(self.path + ".lock"):
            yield

    # -- replay ---------------------------------------------------------

    def poll(self):
        """Fold WAL records appended since the last poll; returns how many.

        :func:`~repro.fsio.read_records` consumes complete lines only
        and parses each on its own, so a torn tail, a partial UTF-8
        sequence or a garbled record costs exactly that one line, never
        the replay.
        """
        with self._mutex:
            records, self._offset = read_records(self.path, self._offset)
            folded = 0
            for doc in records:
                if doc.get("v", WAL_VERSION) != WAL_VERSION:
                    continue
                self._fold(doc)
                folded += 1
            return folded

    def _fold(self, doc):
        op = doc.get("op")
        job_id = doc.get("job_id")
        if not isinstance(job_id, str):
            return
        job = self.jobs.get(job_id)
        if op == "submit":
            if job is None:
                if not isinstance(doc.get("spec"), dict):
                    return
                job = Job(job_id, doc["spec"],
                          tenant=doc.get("tenant") or "default",
                          submitted_ts=doc.get("ts"))
                self.jobs[job_id] = job
                self._order.append(job_id)
            else:
                job.submits += 1
            return
        if job is None:
            return  # an orphan transition (its submit line was torn)
        job.updated_ts = doc.get("ts", job.updated_ts)
        if op == "lease":
            job.state = "leased"
            job.attempts = doc.get("attempts", job.attempts + 1)
            job.lease_owner = doc.get("owner")
            job.lease_deadline = doc.get("deadline")
        elif op in ("release", "expire"):
            if job.state == "leased":
                job.state = "submitted"
            job.lease_owner = None
            job.lease_deadline = None
        elif op == "done":
            job.state = "done"
            job.result = doc.get("payload")
            job.cache_key = doc.get("cache_key")
            job.seconds = doc.get("seconds", 0.0)
            job.lease_owner = None
            job.lease_deadline = None
        elif op == "failed":
            job.state = "failed"
            job.error = doc.get("error")
            job.lease_owner = None
            job.lease_deadline = None
        elif op == "dead":
            job.state = "dead"
            job.error = doc.get("error", job.error)
            job.lease_owner = None
            job.lease_deadline = None
        # unknown ops: ignored (forward compatibility)

    # -- operations -----------------------------------------------------

    def submit(self, spec, tenant="default", max_depth=None):
        """Durably accept one job; returns ``(job, created, shed)``.

        Dedup: a spec whose :func:`job_key` matches an existing job —
        any state, including ``done`` — returns that job (``created``
        False) after recording the duplicate submit.  *max_depth* (live
        jobs) is the backpressure bound: beyond it a **new** job is shed
        (``(None, False, True)``) and nothing is written; duplicates of
        existing jobs always succeed, because they add no work.
        """
        spec = normalize_spec(spec)
        job_id = job_key(spec)
        with self._lock():
            self.poll()
            existing = self.jobs.get(job_id)
            if existing is not None:
                self._append({
                    "op": "submit", "job_id": job_id, "spec": spec,
                    "tenant": tenant,
                })
                self.poll()
                return existing, False, False
            if max_depth is not None and self.depth() >= max_depth:
                return None, False, True
            self._append({
                "op": "submit", "job_id": job_id, "spec": spec,
                "tenant": tenant,
            })
            self.poll()
            return self.jobs[job_id], True, False

    def expire_leases(self, now=None, keep=()):
        """Return expired leases to the queue; returns ``[job_id]``.

        A job that has burned ``max_lease_attempts`` leases goes
        ``dead`` instead (crash-loop protection — see the module
        docstring).  Jobs in *keep* — the caller's own running leases —
        are skipped: their holder is alive.
        """
        now = time.time() if now is None else now
        expired = []
        with self._lock():
            self.poll()
            for job in list(self.jobs.values()):
                if job.state != "leased" or job.lease_deadline is None:
                    continue
                if job.job_id in keep:
                    continue
                if job.lease_deadline > now:
                    continue
                if job.attempts >= self.max_lease_attempts:
                    self._append({
                        "op": "dead", "job_id": job.job_id,
                        "error": "lease expired %d time(s) "
                                 "(max_lease_attempts)" % job.attempts,
                    })
                else:
                    self._append({"op": "expire", "job_id": job.job_id})
                self.poll()
                expired.append(job.job_id)
        return expired

    def lease(self, owner, limit=1, lease_seconds=300.0, admit=None):
        """Lease up to *limit* submitted jobs, fairly across tenants.

        Fairness is round-robin over the tenants that currently have
        submitted jobs, starting after the tenant served first last
        time — a tenant flooding the queue cannot starve the others.
        *admit*, if given, is called as ``admit(job)`` before each lease
        (the daemon's token-bucket rate limiter); a refusal skips that
        tenant this round without burning an attempt.
        """
        leased = []
        deadline = time.time() + lease_seconds
        with self._lock():
            self.poll()
            queues = {}
            for job_id in self._order:
                job = self.jobs[job_id]
                if job.state == "submitted":
                    queues.setdefault(job.tenant, []).append(job)
            tenants = sorted(queues)
            if not tenants:
                return leased
            self._rr %= len(tenants)
            cursor = self._rr
            skipped = set()
            while len(leased) < limit and len(skipped) < len(tenants):
                tenant = tenants[cursor % len(tenants)]
                cursor += 1
                if tenant in skipped:
                    continue
                pending = queues[tenant]
                if not pending:
                    skipped.add(tenant)
                    continue
                job = pending[0]
                if admit is not None and not admit(job):
                    skipped.add(tenant)
                    continue
                pending.pop(0)
                self._append({
                    "op": "lease", "job_id": job.job_id, "owner": owner,
                    "deadline": deadline, "attempts": job.attempts + 1,
                })
                self.poll()
                leased.append(job)
            self._rr = cursor % len(tenants)
        return leased

    def complete(self, job_id, payload, cache_key=None, seconds=0.0,
                 supervision=None):
        """Durably mark one leased job done, carrying its full result.

        The payload rides in the WAL (exactly like a supervision-journal
        line) so a done job's result survives even a pruned
        :class:`ResultCache`; *cache_key* records where the shared copy
        landed and *supervision* the policy knobs it ran under, so a
        rerun is reproducible from the record alone.
        """
        with self._lock():
            self.poll()
            job = self.jobs.get(job_id)
            if job is None or job.state in TERMINAL_STATES:
                return False  # duplicate completion: first writer won
            self._append({
                "op": "done", "job_id": job_id, "payload": payload,
                "cache_key": cache_key, "seconds": seconds,
                "supervision": supervision,
            })
            self.poll()
            return True

    def fail(self, job_id, error):
        with self._lock():
            self.poll()
            job = self.jobs.get(job_id)
            if job is None or job.state in TERMINAL_STATES:
                return False
            self._append({
                "op": "failed", "job_id": job_id,
                "error": str(error)[-4000:],
            })
            self.poll()
            return True

    def release(self, job_id):
        """Return one leased job to ``submitted`` (the drain path)."""
        with self._lock():
            self.poll()
            job = self.jobs.get(job_id)
            if job is None or job.state != "leased":
                return False
            self._append({"op": "release", "job_id": job_id})
            self.poll()
            return True

    # -- views ----------------------------------------------------------

    def get(self, job_id):
        return self.jobs.get(job_id)

    def depth(self):
        """Live jobs (submitted + leased): the backpressure measure."""
        with self._mutex:
            return sum(1 for job in self.jobs.values() if job.live)

    def counts(self):
        counts = {state: 0 for state in LIVE_STATES + TERMINAL_STATES}
        with self._mutex:
            for job in self.jobs.values():
                counts[job.state] = counts.get(job.state, 0) + 1
            counts["total"] = len(self.jobs)
        counts["depth"] = counts["submitted"] + counts["leased"]
        return counts

    def list_jobs(self):
        """Job summaries in first-submit order (no result payloads)."""
        with self._mutex:
            return [self.jobs[job_id].to_dict() for job_id in self._order]
