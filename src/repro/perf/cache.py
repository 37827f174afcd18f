"""Persistent on-disk simulation-result cache.

A simulation is a pure function of (program, config, instruction budgets),
so its results can be cached by a content hash of exactly those inputs:

* the encoded program bytes (code words + data image + entry point —
  names, labels and symbols are display-only and excluded),
* the config fingerprint (every :class:`~repro.core.config.CoreConfig`
  field, memory hierarchy included, as canonical JSON),
* ``max_instructions`` and ``warmup_instructions``,
* the cache schema version (bump :data:`CACHE_SCHEMA_VERSION` whenever
  the simulator's timing semantics or the entry layout change).

Entries live under ``~/.cache/repro`` (override with ``REPRO_CACHE_DIR``)
as ``v<schema>/<key[:2]>/<key>.json``; each stores the full lossless
stats snapshot (:meth:`~repro.core.stats.SimStats.to_snapshot`), the
energy report, the L1D MSHR occupancy histogram and the flat metrics
snapshot, which is everything the benchmarks, figures and manifests
consume.  A cached entry rehydrates into a :class:`CachedSimResult`
whose ``stats.to_dict()`` is byte-identical to the live run's.

Corrupt or schema-mismatched entries are treated as misses, but not
silently: the damaged file is quarantined (renamed to ``*.corrupt``) so
it can be inspected, and the entry is recomputed.  Writes are atomic
(:func:`repro.fsio.atomic_replace`) and additionally serialized across
processes by an ``flock``-based write lock (``.write.lock`` in the
schema directory), so concurrent sweep workers and bench processes can
share one cache.  :class:`EntryStore` holds this discipline for both
the cache and the warm-trace store.
"""

import hashlib
import json
import os
import sys
import time

from repro.core.stats import SimStats
from repro.energy.mcpat import EnergyReport
from repro.fsio import atomic_replace, flock_exclusive
from repro.obs.export import jsonable, run_manifest, write_json

#: Bump when the simulator's timing semantics or this entry layout change:
#: every older entry then misses and is recomputed.
CACHE_SCHEMA_VERSION = 1

_ENV_DIR = "REPRO_CACHE_DIR"
_ENV_MAX_MB = "REPRO_CACHE_MAX_MB"


def default_cache_dir():
    """``$REPRO_CACHE_DIR``, or ``~/.cache/repro``."""
    env = os.environ.get(_ENV_DIR)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def max_bytes_from_env(name, default=None):
    """Parse a ``*_MAX_MB`` environment variable into bytes (or None).

    Unset, empty, non-numeric and non-positive values all mean
    "unbounded" — a malformed limit must never make the cache refuse to
    work, only to skip pruning.
    """
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return default
    try:
        mb = float(raw)
    except ValueError:
        return default
    if mb <= 0:
        return default
    return int(mb * 1024 * 1024)


def prune_lru(root, max_bytes, protect=()):
    """Shrink the cache tree under *root* to at most *max_bytes*.

    The policy — shared by :class:`ResultCache` and
    :class:`~repro.perf.tracestore.TraceStore` — is LRU by file mtime:
    entry files (and quarantined ``.corrupt`` leftovers) are deleted
    oldest-first until the tree fits.  Paths in *protect* (e.g. the
    entry just written) are never deleted.  Lock and temp files are
    ignored.  Returns an accounting dict; a vanished or unreadable tree
    prunes nothing rather than raising.
    """
    protect = {os.path.abspath(p) for p in protect}
    entries = []
    total = 0
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            if name.endswith((".lock", ".tmp")):
                continue
            path = os.path.join(dirpath, name)
            try:
                stat = os.stat(path)
            except OSError:
                continue
            total += stat.st_size
            if os.path.abspath(path) not in protect:
                entries.append((stat.st_mtime, stat.st_size, path))
    report = {
        "root": root,
        "max_bytes": max_bytes,
        "examined": len(entries),
        "removed": 0,
        "freed_bytes": 0,
        "kept_bytes": total,
    }
    if max_bytes is None or total <= max_bytes:
        return report
    entries.sort()
    for _mtime, size, path in entries:
        if total <= max_bytes:
            break
        try:
            os.unlink(path)
        except OSError:
            continue
        total -= size
        report["removed"] += 1
        report["freed_bytes"] += size
    report["kept_bytes"] = total
    return report


def program_digest(program):
    """Content hash of a program's *semantic* content.

    Covers each instruction's executable fields (opcode, registers,
    immediate, target), the initial data image and the entry PC.
    Deliberately excludes ``name``, ``labels`` and ``symbols``: they are
    display/debug metadata and never influence simulation.  Hashing the
    field tuples (rather than encoded words) keeps synthetic workloads
    with immediates wider than the 16-bit encodable range cacheable.

    Memoized on the program object: a config sweep computes cache and
    trace-store keys for the *same* immutable program at every point,
    and large workloads' data images make the digest non-trivial.
    """
    memo = getattr(program, "_digest_memo", None)
    if memo is not None:
        return memo
    hasher = hashlib.sha256()
    for inst in program.code:
        hasher.update(
            (
                "%s|%r|%r|%r|%r|%r\n"
                % (inst.opcode.name, inst.rd, inst.rs1, inst.rs2,
                   inst.imm, inst.target)
            ).encode()
        )
    hasher.update(b"--data--\n")
    # Bulk-hash the data image: every word's address, then every word,
    # in address order.  Explicitly little-endian so the digest stays
    # host-independent.
    addrs, values = program.data.arrays()
    if sys.byteorder == "big":  # pragma: no cover - LE hosts everywhere
        addrs.byteswap()
        values.byteswap()
    hasher.update(addrs.tobytes())
    hasher.update(b"--values--\n")
    hasher.update(values.tobytes())
    hasher.update(program.entry.to_bytes(8, "little"))
    digest = hasher.hexdigest()
    try:
        program._digest_memo = digest
    except AttributeError:  # pragma: no cover - slotted stand-ins
        pass
    return digest


def config_fingerprint(config):
    """Canonical JSON of every config field (memory hierarchy included)."""
    return json.dumps(jsonable(config), sort_keys=True, separators=(",", ":"))


def result_key(program, config, max_instructions=None, warmup_instructions=0,
               schema_version=None, sampling=None):
    """The cache key (hex digest) for one simulation point.

    *sampling* — a :class:`~repro.perf.sample.SamplingPlan` or its
    ``fingerprint()`` string — enters the digest, so a sampled run can
    never be served from (or poison) the full-detail entry for the same
    (program, config, budgets) point.  ``None`` (full detail) leaves the
    digest byte-identical to the pre-sampling layout, keeping existing
    caches warm.
    """
    version = CACHE_SCHEMA_VERSION if schema_version is None else schema_version
    hasher = hashlib.sha256()
    hasher.update(("repro.perf.cache/v%d\n" % version).encode())
    hasher.update(program_digest(program).encode())
    hasher.update(b"\n")
    hasher.update(config_fingerprint(config).encode())
    hasher.update(
        ("\nmax=%r warmup=%r" % (max_instructions, warmup_instructions)).encode()
    )
    if sampling is not None:
        fingerprint = (
            sampling if isinstance(sampling, str) else sampling.fingerprint()
        )
        hasher.update(("\nsampling=%s" % fingerprint).encode())
    return hasher.hexdigest()


def snapshot_result(result, workload=None, run=None):
    """Serialize a live :class:`~repro.core.simulator.SimResult` to a
    JSON-safe dict (the cache entry payload, also the form the sweep
    engine ships across process boundaries)."""
    energy = result.energy
    return {
        "schema": CACHE_SCHEMA_VERSION,
        "kind": "repro.perf.result",
        "created": time.time(),
        "program": result.program_name,
        "config_name": result.config.name,
        "workload": jsonable(workload) if workload else None,
        "run": jsonable(run) if run else None,
        # Sampled runs carry their honest accounting (plan, intervals,
        # confidence interval); None for full-detail runs.
        "sampling": jsonable(getattr(result, "sampling", None)),
        "stats": result.stats.to_snapshot(),
        "energy": {
            "dynamic_pj": energy.dynamic_pj,
            "static_pj": energy.static_pj,
            "breakdown_pj": dict(energy.breakdown_pj),
        },
        "mshr_histogram": {
            str(occupancy): count
            for occupancy, count in result.mshr_histogram().items()
        },
        "metrics": result.metrics_snapshot(),
    }


class CachedSimResult:
    """A rehydrated simulation result.

    Mirrors the :class:`~repro.core.simulator.SimResult` surface the
    benchmarks, figures and manifest exporter use — ``stats`` (a fully
    restored :class:`SimStats`), ``energy``, ``ipc``/``effective_ipc``,
    ``mshr_histogram()``, ``summary()``, ``manifest()`` — without a live
    ``pipeline`` (deep inspection needs a fresh, uncached run).
    """

    pipeline = None

    def __init__(self, payload, config=None):
        self.payload = payload
        self.program_name = payload["program"]
        self.config = config
        #: Sampled-run accounting dict, or ``None`` for full-detail runs.
        self.sampling = payload.get("sampling")
        self.stats = SimStats.from_snapshot(payload["stats"])
        self.energy = EnergyReport(
            dynamic_pj=payload["energy"]["dynamic_pj"],
            static_pj=payload["energy"]["static_pj"],
            breakdown_pj=dict(payload["energy"]["breakdown_pj"]),
        )

    @property
    def ipc(self):
        return self.stats.ipc

    def effective_ipc(self, baseline_instructions):
        if self.stats.cycles == 0:
            return 0.0
        return baseline_instructions / self.stats.cycles

    def mshr_histogram(self):
        return {
            int(occupancy): count
            for occupancy, count in self.payload["mshr_histogram"].items()
        }

    def metrics_snapshot(self):
        return dict(self.payload["metrics"])

    def manifest(self, workload=None, run=None):
        return run_manifest(
            self,
            workload=workload or self.payload.get("workload"),
            run=run or self.payload.get("run"),
            metrics=self.metrics_snapshot(),
            sampling=self.sampling,
        )

    def write_manifest(self, path, workload=None, run=None):
        return write_json(path, self.manifest(workload=workload, run=run))

    def summary(self):
        info = self.stats.summary()
        info["program"] = self.program_name
        info["config"] = self.payload["config_name"]
        info["energy_nj"] = round(self.energy.total_nj, 1)
        return info


class EntryStore:
    """Atomically published store entries.

    The ``<root>/v<schema>/<key[:2]>/<key><suffix>`` layout,
    load-with-quarantine, the cross-process write lock, LRU pruning and
    the counters shared by :class:`ResultCache` and
    :class:`~repro.perf.tracestore.TraceStore`.  Entries are published
    whole with :func:`~repro.fsio.atomic_replace`, so no reader ever
    observes a partial one.
    """

    #: The entry file extension.
    suffix = ""

    def __init__(self, root, schema_version, max_mb, max_mb_env):
        self.root = root
        self.schema_version = schema_version
        #: Size bound in bytes (the *max_mb* argument or the
        #: *max_mb_env* variable); ``None`` = unbounded.  Enforced
        #: LRU-by-mtime on every store (:func:`prune_lru`).
        self.max_bytes = (
            int(max_mb * 1024 * 1024) if max_mb
            else max_bytes_from_env(max_mb_env)
        )
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.quarantined = 0
        self.evicted = 0
        #: Stores skipped because a valid entry was already on disk
        #: when the write lock was acquired (the first writer won; this
        #: one raced and lost, harmlessly).
        self.deduped = 0

    def _schema_dir(self):
        return os.path.join(self.root, "v%d" % self.schema_version)

    def path_for(self, key):
        return os.path.join(self._schema_dir(), key[:2], key + self.suffix)

    def _load(self, key, decode, damaged):
        """``decode(fh)`` of the entry for *key*, or ``None`` on a miss.

        *fh* is the entry opened in binary mode.  A missing entry is a
        plain miss.  An entry that exists but whose decode raises one of
        the *damaged* exceptions is quarantined — renamed to
        ``<entry>.corrupt`` so it can be inspected — and then counts as
        a miss; the caller recomputes and the fresh store lands at the
        original path.
        """
        path = self.path_for(key)
        try:
            with open(path, "rb") as fh:
                entry = decode(fh)
        except OSError:
            self.misses += 1
            return None
        except damaged:
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def _quarantine(self, path):
        """Move a damaged entry aside as ``<entry>.corrupt`` (best effort)."""
        try:
            os.replace(path, path + ".corrupt")
        except OSError:
            return
        self.quarantined += 1

    def _write_lock(self):
        """Cross-process write lock (``flock`` on ``.write.lock``).

        Atomic rename already makes readers safe; the lock serializes
        *writers* so two processes storing the same key cannot interleave
        their tempfile/rename pairs.  Held only for the duration of one
        entry write.  A no-op where ``fcntl`` is unavailable.
        """
        return flock_exclusive(
            os.path.join(self._schema_dir(), ".write.lock")
        )

    def _valid_entry_exists(self, path):
        """True if *path* already holds an entry that makes a write
        redundant; a store that dedups concurrent writers overrides it."""
        return False

    def publish(self, key, data):
        """Atomically write encoded *data* under *key*; returns the path.

        Each store's ``store`` encodes its entry and calls this.  A
        failure to persist (read-only store, disk full) is not an error:
        the entry is simply not stored, and ``None`` is returned.
        """
        path = self.path_for(key)
        try:
            with self._write_lock():
                if self._valid_entry_exists(path):
                    self.deduped += 1
                    return path
                atomic_replace(path, data)
                if self.max_bytes is not None:
                    # Still under the write lock: concurrent writers
                    # prune serially, and the entry just written is
                    # never the eviction victim.  Scoped to this
                    # schema's directory — another store under the
                    # same root has its own bound.
                    report = prune_lru(
                        self._schema_dir(), self.max_bytes, protect=(path,)
                    )
                    self.evicted += report["removed"]
        except OSError:
            return None
        self.stores += 1
        return path

    def prune(self, max_mb=None):
        """Shrink the store to *max_mb* (or the configured bound) now.

        The manual entry point behind ``repro cache-prune``; returns the
        :func:`prune_lru` report (with ``max_bytes`` ``None`` and no
        configured bound, reports current usage without deleting).
        """
        max_bytes = (
            int(max_mb * 1024 * 1024) if max_mb is not None
            else self.max_bytes
        )
        with self._write_lock():
            report = prune_lru(self._schema_dir(), max_bytes)
        self.evicted += report["removed"]
        return report

    def counters(self):
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "quarantined": self.quarantined,
            "evicted": self.evicted,
        }


class ResultCache(EntryStore):
    """The on-disk cache: ``<root>/v<schema>/<key[:2]>/<key>.json``."""

    suffix = ".json"

    def __init__(self, root=None, schema_version=None, max_mb=None):
        super().__init__(
            root or default_cache_dir(),
            CACHE_SCHEMA_VERSION if schema_version is None else schema_version,
            max_mb, _ENV_MAX_MB,
        )

    def key_for(self, program, config, max_instructions=None,
                warmup_instructions=0, sampling=None):
        return result_key(
            program, config, max_instructions, warmup_instructions,
            schema_version=self.schema_version, sampling=sampling,
        )

    def load(self, key, config=None):
        """The :class:`CachedSimResult` for *key*, or ``None``.

        An entry that does not parse or rehydrate (truncated write, bit
        rot, foreign schema) is quarantined and counts as a miss.
        """
        def decode(fh):
            # Bytes, not text: decode failures (bit rot) must reach the
            # quarantine, not escape as UnicodeDecodeError.
            payload = json.loads(fh.read())
            if not isinstance(payload, dict):
                raise ValueError("entry is not a JSON object")
            if payload.get("schema") != self.schema_version:
                raise ValueError("schema mismatch")
            return CachedSimResult(payload, config=config)

        return self._load(key, decode, (ValueError, KeyError, TypeError))

    def _valid_entry_exists(self, path):
        """True if *path* already holds a complete, schema-current entry.

        Called under the write lock to resolve the duplicate-submit
        race: a damaged or foreign-schema entry returns False, so the
        caller's fresh payload overwrites it.
        """
        try:
            with open(path, "rb") as fh:
                payload = json.loads(fh.read())
        except (OSError, ValueError):
            return False
        return (isinstance(payload, dict)
                and payload.get("schema") == self.schema_version)

    def store(self, key, payload):
        """Atomically write *payload* under *key*; returns the entry path.

        Two clients simulating the same uncached point dedup here: the
        write lock serializes them, the loser finds the winner's
        complete entry already in place and skips its own write
        (counted in ``deduped``).  Simulation is deterministic, so the
        payloads are interchangeable.  A failure to persist returns
        ``None``: the result is simply not cached.
        """
        return self.publish(key, json.dumps(payload) + "\n")

    def store_result(self, key, result, workload=None, run=None):
        """Snapshot a live SimResult and persist it; returns the payload."""
        payload = snapshot_result(result, workload=workload, run=run)
        self.store(key, payload)
        return payload

    def counters(self):
        return dict(super().counters(), deduped=self.deduped)
