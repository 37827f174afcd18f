"""Performance subsystem: persistent result cache, sweep points, speed.

The paper's evaluation is a large grid of *independent* simulations —
{workload x variant x input x config} — and a pure-Python cycle core makes
each point expensive.  This package makes the grid cheap two ways:

:mod:`repro.perf.cache`
    A persistent on-disk result cache keyed by a content hash of the
    *simulation inputs* (encoded program bytes, config fingerprint,
    instruction budgets, cache schema version).  Re-running a figure
    after an unrelated edit is incremental: every already-simulated
    point loads in microseconds.

:mod:`repro.perf.sweep`
    Sweep points and outcomes, the per-point worker with error capture
    (one crashed point doesn't kill a whole figure) and the warm-trace
    prewarm — what :func:`repro.rel.supervise.run_supervised_sweep`, the
    sweep engine, fans out over ``ProcessPoolExecutor`` workers.

:mod:`repro.perf.sample`
    SMARTS-style sampled simulation: detailed windows + trace-replay
    warm gaps, with honest per-stat extrapolation error bars
    (``repro run --sample``).

:mod:`repro.perf.speed`
    The sampled-engine benchmark behind ``repro bench-speed``: sampled
    KIPS and IPC error against full detail on the reference cases, with
    its speed and 2% error gates, written to ``BENCH_speed.json``.

See docs/PERFORMANCE.md for the cache layout, invalidation rules and
the sampling design; speed is measured by ``perfbench/``.
"""

from repro.perf.cache import (
    CACHE_SCHEMA_VERSION,
    CachedSimResult,
    ResultCache,
    default_cache_dir,
    program_digest,
    result_key,
    snapshot_result,
)
from repro.perf.sample import (
    SampledSimResult,
    SampledSimulator,
    SamplingPlan,
)
from repro.perf.speed import (
    REFERENCE_CASES,
    SpeedCase,
    run_sampled_benchmark,
)
from repro.perf.sweep import SweepOutcome, SweepPoint, default_jobs

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CachedSimResult",
    "REFERENCE_CASES",
    "ResultCache",
    "SampledSimResult",
    "SampledSimulator",
    "SamplingPlan",
    "SpeedCase",
    "SweepOutcome",
    "SweepPoint",
    "default_cache_dir",
    "default_jobs",
    "program_digest",
    "result_key",
    "run_sampled_benchmark",
    "snapshot_result",
]
