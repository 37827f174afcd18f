"""Persistent warm-trace checkpoint store.

A sampled simulation's functional pre-scan
(:func:`repro.core.warm.record_portable_trace`) is a pure function of
the program, its input (already folded into the program build), the
instruction budget and the *warm fingerprint* — the few config fields
that reach the functional machine or the event-kind table
(:func:`repro.core.warm.warm_fingerprint`).  Everything else about a
config is timing-only, so a sweep of N configs over one workload×input
re-records the *same* trace N times.  :class:`TraceStore` keys the
serialized :class:`~repro.core.warm.PortableWarmTrace` by exactly those
inputs and persists it once:

* entries live under ``$REPRO_TRACE_DIR`` (default
  ``<result cache root>/traces``) as ``v<schema>/<key[:2]>/<key>.rwt``;
* writes are atomic and serialized by the same ``flock`` discipline as
  :class:`~repro.perf.cache.ResultCache` (both are
  :class:`~repro.perf.cache.EntryStore` s);
* a damaged entry (CRC mismatch, truncation, foreign schema) is
  quarantined as ``*.corrupt`` and treated as a miss — never an error;
* the store is size-bounded by ``REPRO_TRACE_MAX_MB`` with the shared
  LRU-by-mtime policy (:func:`repro.perf.cache.prune_lru`);
* loads go through ``mmap`` when possible, so a pool of sweep workers
  reading the same trace shares page-cache pages instead of N private
  read buffers.

The sweep engine (:func:`repro.rel.supervise.run_supervised_sweep` with
a trace store attached) records or cache-hits each workload group's
trace once in the parent, then fans config points out to workers that
load the shared entry instead of re-scanning — see docs/PERFORMANCE.md.
"""

import hashlib
import mmap
import os

from repro.core.warm import (
    PortableWarmTrace,
    TraceFormatError,
    record_portable_trace,
    warm_fingerprint,
)
from repro.perf.cache import EntryStore, default_cache_dir, program_digest

#: Bump when the trace key recipe or store layout changes; the
#: serialized trace format itself is versioned separately
#: (:data:`repro.core.warm.TRACE_SCHEMA_VERSION`).
TRACE_STORE_SCHEMA = 1

_ENV_DIR = "REPRO_TRACE_DIR"
_ENV_MAX_MB = "REPRO_TRACE_MAX_MB"


def default_trace_dir():
    """``$REPRO_TRACE_DIR``, or ``<result cache root>/traces``."""
    env = os.environ.get(_ENV_DIR)
    if env:
        return env
    return os.path.join(default_cache_dir(), "traces")


def trace_key(program, config, budget):
    """The store key: (program digest, warm fingerprint, budget).

    The program digest covers the workload binary *and* its input (the
    build bakes the input image into the program data); the warm
    fingerprint covers every config field that can change the recorded
    stream.  Timing-only config fields are deliberately absent — that
    is the whole point: every config in a sweep group maps to one key.
    """
    hasher = hashlib.sha256()
    hasher.update(("repro.perf.tracestore/v%d\n" % TRACE_STORE_SCHEMA).encode())
    hasher.update(program_digest(program).encode())
    hasher.update(b"\n")
    hasher.update(warm_fingerprint(config).encode())
    hasher.update(("\nbudget=%d" % budget).encode())
    return hasher.hexdigest()


def _read_trace(fh):
    """Deserialize the trace entry open as *fh* (binary).

    The entry is ``mmap``-ed read-only when the platform allows it
    (falling back to a plain read), so concurrent workers share the
    page cache.
    """
    try:
        with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as view:
            return PortableWarmTrace.from_bytes(view)
    except TraceFormatError:
        raise
    except (ValueError, OSError):
        # Empty file (mmap refuses length 0) or no mmap support: fall
        # back to a plain read.
        fh.seek(0)
        return PortableWarmTrace.from_bytes(fh.read())


class TraceStore(EntryStore):
    """On-disk warm-trace store: ``<root>/v<schema>/<key[:2]>/<key>.rwt``."""

    suffix = ".rwt"

    def __init__(self, root=None, max_mb=None):
        super().__init__(root or default_trace_dir(), TRACE_STORE_SCHEMA,
                         max_mb, _ENV_MAX_MB)

    def key_for(self, program, config, budget):
        return trace_key(program, config, budget)

    def load(self, key):
        """The stored :class:`PortableWarmTrace`, or ``None`` on a miss.

        A present-but-damaged entry is quarantined as
        ``<entry>.corrupt`` and counts as a miss.
        """
        return self._load(key, _read_trace, TraceFormatError)

    def store(self, key, trace):
        """Atomically persist *trace* under *key*; returns the path.

        Persistence failures (read-only store, disk full) are not
        errors — the trace is simply not shared, and ``None`` is
        returned.
        """
        return self.publish(key, trace.to_bytes())

    def get_or_record(self, pipeline, budget, key=None):
        """The trace for (*pipeline*, *budget*): a store hit, or a fresh
        recording persisted on the way out.

        Returns ``(trace, source)`` with *source* ``"hit"`` or
        ``"record"``.
        """
        if key is None:
            key = self.key_for(pipeline.program, pipeline.config, budget)
        trace = self.load(key)
        if trace is not None:
            return trace, "hit"
        trace = record_portable_trace(pipeline, budget)
        self.store(key, trace)
        return trace, "record"
