"""Reliability subsystem: supervised sweeps, invariant checking, fault injection.

The paper's evaluation is thousands of independent simulation points; one
hung point, one SIGKILLed worker or one silently corrupted cache entry
can lose or skew an entire figure.  This package makes the sweep/cache
layer survive faults and makes the simulator actively prove its own
consistency:

:mod:`repro.rel.supervise`
    :func:`run_supervised_sweep` — the sweep engine: process-pool
    fan-out with result-cache and trace-store reuse, plus per-point
    wall-clock timeouts, bounded retries with exponential backoff,
    ``BrokenProcessPool`` recovery with graceful degradation to inline
    execution, and a JSONL checkpoint journal for resumable sweeps.

:mod:`repro.rel.invariants`
    :class:`InvariantChecker` — an opt-in observer cross-checking retired
    architectural state against an independent functional oracle and
    validating queue occupancy / pointer algebra / instruction
    conservation every cycle.

:mod:`repro.rel.inject`
    The deterministic fault catalogue the ``tests/rel`` suite drives:
    queue/register/pointer corruption, predictor and BTB pollution,
    dropped cache writes, killed/hung sweep workers, damaged cache
    entries — and, for the simulation service, daemon-level faults
    (kill-on-lease, delayed heartbeats, WAL-tail truncation).

See docs/ROBUSTNESS.md for the supervision knobs, checker modes, fault
catalogue and the CLI exit-code contract.
"""

from repro.rel.inject import (
    BQPointerCorrupt,
    BQPredicateFlip,
    BTBCorrupt,
    CacheWriteDrop,
    CommittedStateCorrupt,
    FaultInjector,
    PRFCorrupt,
    PredictorStateFlip,
    TQCountCorrupt,
    arm_daemon_fault,
    arm_worker_fault,
    corrupt_cache_entry,
    disarm_daemon_fault,
    disarm_worker_fault,
    maybe_trip_daemon_fault,
    maybe_trip_worker_fault,
    truncate_wal_tail,
)
from repro.rel.invariants import InvariantChecker
from repro.rel.supervise import (
    JOURNAL_VERSION,
    SupervisionPolicy,
    SweepJournal,
    WorkerPool,
    point_key,
    run_supervised_sweep,
)

__all__ = [
    "BQPointerCorrupt",
    "BQPredicateFlip",
    "BTBCorrupt",
    "CacheWriteDrop",
    "CommittedStateCorrupt",
    "FaultInjector",
    "InvariantChecker",
    "JOURNAL_VERSION",
    "PRFCorrupt",
    "PredictorStateFlip",
    "SupervisionPolicy",
    "SweepJournal",
    "TQCountCorrupt",
    "WorkerPool",
    "arm_daemon_fault",
    "arm_worker_fault",
    "corrupt_cache_entry",
    "disarm_daemon_fault",
    "disarm_worker_fault",
    "maybe_trip_daemon_fault",
    "maybe_trip_worker_fault",
    "point_key",
    "run_supervised_sweep",
    "truncate_wal_tail",
]
