"""What each workload runs: cases, geometry, input pools and schedules.

The benchmark keeps its own copy of every case, plan and axis instead of
importing ``REFERENCE_CASES``, ``SAMPLED_PLAN`` or ``reference_points``
from ``src/``: a change to the program must not silently change the
work a workload measures.

Inputs come from ``--seed``.  The three batch workloads draw their data
seeds from a pinned pool (every pool entry has a correctness pin in
``pins.json``); the benchmark seed rotates the pool, so a run covers the
whole pool in a seed-dependent order and every run does the same work.
The serve workload's job seeds derive from the benchmark seed directly,
because its correctness check re-runs jobs instead of using pins.

This module imports nothing from ``repro`` so that ``run.py`` can read it
before ``src/`` is on the path.
"""

import hashlib
import json
import math
from collections import namedtuple

#: One reference case: a workload binary on a named config.
Case = namedtuple("Case", "name workload variant input config")

#: The four reference cases every workload builds (one memory-bound
#: baseline, one DFD binary, one TQ binary and one CFD binary).
CASES = (
    Case("astar_base", "astar_r1", "base", "BigLakes", "memory_bound"),
    Case("astar_dfd", "astar_r1", "dfd", "Rivers", "memory_bound"),
    Case("bzip2_tq", "bzip2", "tq", "chicken", "sandy_bridge"),
    Case("soplex_cfd", "soplex", "cfd", "ref", "sandy_bridge"),
)

# -- core-full: full-detail Simulator.run, bench-speed geometry ---------
CORE_SCALE = 0.125
CORE_BUDGETS = {"astar_base": 20_000, "astar_dfd": 15_000,
                "bzip2_tq": 20_000, "soplex_cfd": 20_000}
CORE_POOL = (1, 2, 3, 4, 5, 6)

# -- sampled-run: SampledSimulator.run, bench-speed --sample geometry ---
SAMPLED_SCALE = 2.0
SAMPLED_BUDGET = 600_000
SAMPLED_PLAN = "interval=4000,warmup=200,period=28000,head=2000,tail=2000"
SAMPLED_POOL = (1, 2, 3)

# -- sweep: run_supervised_sweep over cases x ROB sizes -----------------
SWEEP_SCALE = 2.0
SWEEP_BUDGET = 600_000
SWEEP_PLAN = (
    "interval=400,warmup=100,period=500000,head=500,tail=500,window=4000"
)
SWEEP_ROBS = (48, 96, 168)
SWEEP_POOL = (1, 2, 3, 4, 5, 6, 7)
SWEEP_JOBS = 2

# -- serve: HTTP jobs through a `repro serve` daemon --------------------
SERVE_SCALE = 0.0625
SERVE_BUDGET = 500
SERVE_DAEMON_JOBS = 2
#: Open-loop phase: jobs sent on a fixed schedule at about half the rate
#: the burst phase sustains on a 2-core host (11-18 jobs/s, depending on
#: steal).  100 jobs leave ten samples beyond the p90.
SERVE_OPEN_JOBS = 100
SERVE_OPEN_RATE = 7.5
#: Burst phase: bursts of jobs sent back to back, each waited for before
#: the next; the median burst sets the throughput.
SERVE_BURSTS = 6
SERVE_BURST_JOBS = 40
#: Jobs re-run in the benchmark process after the timed phase.
SERVE_RECHECKS = 4
#: Latency limit for the p90; a failed, dead or shed job misses it.
SERVE_LATENCY_LIMIT_S = 5.0
SERVE_CONFIGS = {"memory_bound": "memory-bound", "sandy_bridge": "baseline"}

WORKLOADS = ("core-full", "sampled-run", "sweep", "serve")

#: Data-seed pool per batch workload, and the wall seconds one round over
#: the four cases takes on a 2-core host.  ``--seconds 20`` covers the
#: whole pool; fewer seconds cover a prefix of the rotated pool.
POOLS = {"core-full": CORE_POOL, "sampled-run": SAMPLED_POOL,
         "sweep": SWEEP_POOL}
ROUND_SECONDS = {"core-full": 2.6, "sampled-run": 9.5, "sweep": 3.0}


def pool_schedule(workload, seed, seconds):
    """The data seeds of one run's rounds, in order.

    The pool is rotated by the benchmark seed, so each seed starts at
    another entry, and cut to the rounds that fit *seconds*: the work of
    a run is fixed in advance, never by how fast the host happens to be.
    """
    pool = POOLS[workload]
    start = seed % len(pool)
    rotated = pool[start:] + pool[:start]
    rounds = math.ceil(seconds / ROUND_SECONDS[workload])
    return rotated[:max(1, min(len(pool), rounds))]


def serve_specs(seed, count, offset=0):
    """*count* distinct job specs; job *j* of benchmark seed *seed* gets
    data seed ``seed * 100000 + offset + j``, so no two jobs of any run
    share a result-cache key or a dedup identity."""
    specs = []
    for j in range(offset, offset + count):
        case = CASES[j % len(CASES)]
        specs.append({
            "workload": case.workload, "variant": case.variant,
            "input": case.input, "scale": SERVE_SCALE,
            "seed": seed * 100_000 + j,
            "max_instructions": SERVE_BUDGET,
            "config": SERVE_CONFIGS[case.config],
        })
    return specs


def pin_key(case_name, data_seed, rob=None):
    if rob is None:
        return "%s/seed%d" % (case_name, data_seed)
    return "%s/rob%d/seed%d" % (case_name, rob, data_seed)


def digest(doc):
    """sha256 of the canonical JSON form of *doc*."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def payload_digest(payload):
    """Digest of a result payload minus its ``created`` wall-clock stamp."""
    return digest({k: v for k, v in payload.items() if k != "created"})
