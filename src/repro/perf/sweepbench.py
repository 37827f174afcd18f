"""Sweep-throughput benchmark: config points per host second.

``repro bench-sweep`` measures what the warm-trace store actually buys
on the workload the paper's figures generate: the *same* workload
simulated under many machine configs.  The reference sweep is 4
workloads × 6 ROB scalings (:data:`SWEEP_ROBS`, the Fig 21 axis) in
sampled mode, run three ways over identical points:

* ``per_point`` — every point records its own functional warm pre-scan
  (PR 7 behaviour: the trace store is off);
* ``reuse`` — a cold :class:`~repro.perf.tracestore.TraceStore`: the
  scheduler records each workload's shared trace once, all six config
  points load it (``trace_record`` × 4, ``trace_reuse`` × 24);
* ``warm`` — the same store again: even the group recordings are served
  from disk (``trace_hit`` × 4), the steady state of figure iteration.

The headline metric is points/sec; the gate is
``reuse >= SWEEP_SPEEDUP_FLOOR × per_point`` — and it is only meaningful
because every mode's per-point results are **byte-identical** (the
payload-identity check is part of the benchmark, recorded in the
artifact and enforced by the golden-identity test).

The geometry leans the way real figure sweeps do: a long run (the
budget covers each workload to its natural halt at its per-workload
reference scale) with sparse measured intervals and a bounded
functional-warming window (``window=N`` in :data:`SWEEP_PLAN`), so the
pre-scan — not detailed simulation — dominates per-point cost.  See
docs/PERFORMANCE.md ("Warm-trace store & sweep reuse").
"""

import json
import sys
import time

#: The four reference workloads (same set as bench-speed), each swept
#: across the ROB axis under its usual config family, with a
#: per-workload scale chosen so the run is long (~1-4M dynamic
#: instructions) relative to each workload's fixed build/data-image
#: costs — the regime real figure sweeps live in.
SWEEP_WORKLOADS = (
    ("astar_base", "astar_r1", "base", "BigLakes", "memory_bound", 16.0),
    ("astar_dfd", "astar_r1", "dfd", "Rivers", "memory_bound", 16.0),
    ("bzip2_tq", "bzip2", "tq", "chicken", "sandy_bridge", 48.0),
    ("soplex_cfd", "soplex", "cfd", "ref", "sandy_bridge", 32.0),
)

#: Fig 21's machine-size axis: ROB entries, with IQ/LQ/SQ scaled along.
SWEEP_ROBS = (48, 68, 96, 128, 168, 224)

#: Instruction budget per point; every workload halts inside it, so the
#: dynamic length is the workload's natural length at its scale.
SWEEP_BUDGET = 6_000_000
#: Sparse sampled plan with a bounded functional-warming window.
SWEEP_PLAN = (
    "interval=400,warmup=100,period=500000,head=500,tail=500,window=4000"
)

#: Gate: trace reuse (cold store, recording included) must deliver at
#: least this many times the per-point-warm-up throughput.
SWEEP_SPEEDUP_FLOOR = 2.5

#: ``--smoke`` geometry: seconds, not minutes.  Too short for the
#: speedup gate to be meaningful (fixed per-point costs dominate), so
#: smoke runs gate on byte-identity only.
SMOKE_SCALE = 1.0
SMOKE_BUDGET = 150_000
SMOKE_PLAN = (
    "interval=400,warmup=100,period=30000,head=500,tail=500,window=2000"
)


def reference_points(scale=None, budget=None, plan=None, robs=None):
    """The reference 24-point sweep (4 workloads × 6 configs), fresh
    point/config objects per call (configs are mutable).

    *scale* = None uses each workload's reference scale; a number
    overrides all of them (smoke mode).
    """
    from repro.core import memory_bound_config, sandy_bridge_config
    from repro.core.config import scale_window
    from repro.perf.sweep import SweepPoint

    budget = SWEEP_BUDGET if budget is None else budget
    plan = SWEEP_PLAN if plan is None else plan
    robs = SWEEP_ROBS if robs is None else robs
    points = []
    for entry in SWEEP_WORKLOADS:
        _name, workload, variant, input_name, config_name, ref_scale = entry
        for rob in robs:
            base = (
                memory_bound_config() if config_name == "memory_bound"
                else sandy_bridge_config()
            )
            points.append(SweepPoint(
                workload, variant, input_name,
                config=scale_window(base, rob),
                scale=ref_scale if scale is None else scale,
                max_instructions=budget,
                sampling=plan,
            ))
    return points


def _canonical_payloads(outcomes):
    """Per-point result payloads as canonical JSON (byte-comparable).

    The snapshot's ``created`` wall-clock stamp is provenance, not a
    simulation output; everything else — stats, sampling report,
    metrics, config fingerprint — must match to the byte.
    """
    canonical = []
    for outcome in outcomes:
        if not outcome.ok or outcome.result is None:
            canonical.append(None)
            continue
        payload = dict(outcome.result.payload)
        payload.pop("created", None)
        canonical.append(json.dumps(payload, sort_keys=True))
    return canonical


def _mode_summary(outcomes, seconds):
    points = len(outcomes)
    errors = sum(1 for o in outcomes if not o.ok)
    return {
        "points": points,
        "errors": errors,
        "seconds": round(seconds, 3),
        "points_per_sec": round(points / seconds, 4) if seconds else 0.0,
        "trace_sources": {
            source: sum(
                1 for o in outcomes
                if (o.trace or {}).get("source") == source
            )
            for source in ("inline", "hit", "record")
        },
    }


def run_sweep_benchmark(trace_dir, scale=None, budget=None, plan=None,
                        robs=None, jobs=1, progress=None):
    """Run the reference sweep per-point / cold-reuse / warm-reuse.

    *trace_dir* must be a fresh directory (the cold-store timing is the
    point).  Serial by default (*jobs* = 1): both modes then measure the
    same single-stream work and the ratio is a clean amortization
    factor, not a pool-scheduling artifact.

    Returns the ``"sweep"`` section payload for ``BENCH_speed.json``.
    """
    from repro.perf.tracestore import TraceStore
    from repro.rel.supervise import run_supervised_sweep

    def announce(mode):
        if progress is not None:
            progress(mode)

    kwargs = dict(scale=scale, budget=budget, plan=plan, robs=robs)

    announce("per_point")
    start = time.perf_counter()
    base_outcomes = run_supervised_sweep(reference_points(**kwargs),
                                         jobs=jobs)
    base_seconds = time.perf_counter() - start

    announce("reuse")
    cold_store = TraceStore(root=trace_dir)
    start = time.perf_counter()
    reuse_outcomes = run_supervised_sweep(reference_points(**kwargs),
                                          jobs=jobs, trace_store=cold_store)
    reuse_seconds = time.perf_counter() - start

    announce("warm")
    warm_store = TraceStore(root=trace_dir)
    start = time.perf_counter()
    warm_outcomes = run_supervised_sweep(reference_points(**kwargs),
                                         jobs=jobs, trace_store=warm_store)
    warm_seconds = time.perf_counter() - start

    base_payloads = _canonical_payloads(base_outcomes)
    identical = (
        base_payloads == _canonical_payloads(reuse_outcomes)
        and base_payloads == _canonical_payloads(warm_outcomes)
        and all(p is not None for p in base_payloads)
    )
    per_point = _mode_summary(base_outcomes, base_seconds)
    reuse = _mode_summary(reuse_outcomes, reuse_seconds)
    warm = _mode_summary(warm_outcomes, warm_seconds)
    reuse["store"] = cold_store.counters()
    warm["store"] = warm_store.counters()
    speedup = (
        round(reuse["points_per_sec"] / per_point["points_per_sec"], 3)
        if per_point["points_per_sec"] else None
    )
    warm_speedup = (
        round(warm["points_per_sec"] / per_point["points_per_sec"], 3)
        if per_point["points_per_sec"] else None
    )
    gates = {
        "speedup_floor": SWEEP_SPEEDUP_FLOOR,
        "speedup_ok": (speedup or 0.0) >= SWEEP_SPEEDUP_FLOOR,
        "identical_ok": identical,
    }
    return {
        "kind": "repro.bench_sweep",
        "python": "%d.%d.%d" % sys.version_info[:3],
        "workloads": [entry[0] for entry in SWEEP_WORKLOADS],
        "robs": list(SWEEP_ROBS if robs is None else robs),
        "scale": (
            {entry[0]: entry[5] for entry in SWEEP_WORKLOADS}
            if scale is None else scale
        ),
        "budget": SWEEP_BUDGET if budget is None else budget,
        "plan": SWEEP_PLAN if plan is None else plan,
        "jobs": jobs,
        "per_point": per_point,
        "reuse": reuse,
        "warm": warm,
        "speedup_reuse_vs_per_point": speedup,
        "speedup_warm_vs_per_point": warm_speedup,
        "stats_identical": identical,
        "gates": gates,
        "gates_passed": gates["speedup_ok"] and gates["identical_ok"],
    }

