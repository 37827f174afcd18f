"""Sweep-engine determinism and robustness.

The pool must be an implementation detail: the same points run serially
and via worker processes produce byte-identical statistics, results come
back in input order regardless of completion order, and one crashing
point surfaces as ``outcome.error`` without killing the sweep.
"""

import json

import pytest

from repro.perf import ResultCache, SweepPoint
from repro.rel import SupervisionPolicy, run_supervised_sweep

#: Two small, distinct points (different workloads and configs exercise
#: the per-point build + config plumbing through the process boundary).
def _points():
    return [
        SweepPoint(workload="astar_r1", variant="base", input_name="Rivers",
                   scale=0.125, max_instructions=2000),
        SweepPoint(workload="soplex", variant="cfd", input_name="ref",
                   scale=0.125, max_instructions=2000),
    ]


def _stats_blobs(outcomes):
    return [
        json.dumps(o.result.stats.to_dict(), sort_keys=True)
        for o in outcomes
    ]


def test_serial_and_pool_identical():
    serial = run_supervised_sweep(_points(), jobs=1)
    pooled = run_supervised_sweep(_points(), jobs=2)
    assert all(o.ok for o in serial)
    assert all(o.ok for o in pooled)
    assert _stats_blobs(serial) == _stats_blobs(pooled)


def test_results_in_input_order():
    points = _points()
    outcomes = run_supervised_sweep(points, jobs=2)
    assert [o.point.label() for o in outcomes] == [p.label() for p in points]


def test_error_capture_does_not_kill_the_sweep():
    points = _points()
    points.insert(1, SweepPoint(workload="no-such-workload"))
    outcomes = run_supervised_sweep(points, jobs=2,
                                    policy=SupervisionPolicy(retries=0))
    assert outcomes[0].ok and outcomes[2].ok
    assert not outcomes[1].ok
    assert outcomes[1].attempts == 1
    assert "no-such-workload" in outcomes[1].error
    assert outcomes[1].result is None


def test_cache_round_trip(tmp_path):
    cache = ResultCache(root=str(tmp_path))
    first = run_supervised_sweep(_points(), jobs=1, cache=cache)
    assert all(o.ok and not o.cached for o in first)
    second = run_supervised_sweep(_points(), jobs=1, cache=cache)
    assert all(o.ok and o.cached for o in second)
    assert _stats_blobs(first) == _stats_blobs(second)


def test_progress_callback_sees_every_point():
    seen = []
    run_supervised_sweep(
        _points(), jobs=1,
        progress=lambda outcome, done, total: seen.append((done, total)),
    )
    assert sorted(seen) == [(1, 2), (2, 2)]


def test_success_records_seconds_and_attempts():
    for jobs in (1, 2):
        outcomes = run_supervised_sweep(_points(), jobs=jobs)
        assert all(o.ok for o in outcomes)
        assert all(o.seconds > 0 for o in outcomes)
        assert all(o.attempts == 1 for o in outcomes)
        # elapsed is parent-observed per point (submit to completion), so
        # it can never undercut the worker's own measurement by much.
        assert all(o.elapsed + 0.05 >= o.seconds for o in outcomes)


def test_cache_hits_record_zero_seconds_and_attempts(tmp_path):
    cache = ResultCache(root=str(tmp_path))
    run_supervised_sweep(_points(), jobs=1, cache=cache)
    cached = run_supervised_sweep(_points(), jobs=1, cache=cache)
    assert all(o.cached and o.seconds == 0.0 and o.attempts == 0
               for o in cached)


def test_telemetry_on_and_off_identical(tmp_path):
    off = run_supervised_sweep(_points(), jobs=2)
    on = run_supervised_sweep(_points(), jobs=2,
                              telemetry=str(tmp_path / "spool"))
    assert _stats_blobs(off) == _stats_blobs(on)


# -- trace-store scheduling ------------------------------------------------

_PLAN = "interval=200,warmup=50,period=5000,head=300,tail=300"


def _sampled_points(robs=(64, 128)):
    """Sampled points, same workload under several machine sizes: one
    trace group (warm pre-scan is timing-config independent)."""
    from repro.core import sandy_bridge_config
    from repro.core.config import scale_window

    return [
        SweepPoint(workload="astar_r1", variant="base", input_name="Rivers",
                   config=scale_window(sandy_bridge_config(), rob),
                   scale=0.125, max_instructions=30_000, sampling=_PLAN)
        for rob in robs
    ]


def test_trace_store_records_once_then_every_point_hits(tmp_path):
    from repro.perf.tracestore import TraceStore

    store = TraceStore(root=str(tmp_path / "traces"))
    outcomes = run_supervised_sweep(_sampled_points(), jobs=1,
                                    trace_store=store)
    assert all(o.ok for o in outcomes)
    # The scheduler records the shared group trace exactly once...
    counters = store.counters()
    assert counters["stores"] == 1
    # ...and every point then loads it instead of re-scanning.
    assert [(o.trace or {}).get("source") for o in outcomes] == ["hit", "hit"]
    assert counters["hits"] >= len(outcomes)


def test_trace_store_second_sweep_prewarm_hits(tmp_path):
    from repro.perf.tracestore import TraceStore

    root = str(tmp_path / "traces")
    run_supervised_sweep(_sampled_points(), jobs=1,
                         trace_store=TraceStore(root=root))
    warm = TraceStore(root=root)
    outcomes = run_supervised_sweep(_sampled_points(), jobs=1,
                                    trace_store=warm)
    # Steady state: even the group recording is served from disk.
    counters = warm.counters()
    assert counters["stores"] == 0 and counters["misses"] == 0
    assert all((o.trace or {}).get("source") == "hit" for o in outcomes)


def test_trace_reuse_stats_identical_to_inline(tmp_path):
    baseline = run_supervised_sweep(_sampled_points(), jobs=1)
    assert all((o.trace or {}).get("source") == "inline" for o in baseline)
    reused = run_supervised_sweep(_sampled_points(), jobs=1,
                                  trace_store=str(tmp_path / "traces"))
    assert _stats_blobs(baseline) == _stats_blobs(reused)


def test_trace_telemetry_counters(tmp_path):
    from repro.obs.telemetry import SweepAggregator

    root = str(tmp_path / "traces")
    cold_spool = str(tmp_path / "cold")
    run_supervised_sweep(_sampled_points(), jobs=1, telemetry=cold_spool,
                         trace_store=root)
    cold = SweepAggregator(cold_spool)
    cold.poll()
    assert cold.counters["trace_records"] == 1
    assert cold.counters["trace_hits"] == 0
    assert cold.counters["trace_reuses"] == len(_sampled_points())

    warm_spool = str(tmp_path / "warm")
    run_supervised_sweep(_sampled_points(), jobs=1, telemetry=warm_spool,
                         trace_store=root)
    warm = SweepAggregator(warm_spool)
    warm.poll()
    assert warm.counters["trace_records"] == 0
    assert warm.counters["trace_hits"] == 1
    assert warm.counters["trace_reuses"] == len(_sampled_points())


def test_trace_record_events_count_each_groups_points(tmp_path):
    from repro.obs.telemetry import SweepAggregator

    soplex = SweepPoint(workload="soplex", variant="cfd", input_name="ref",
                        scale=0.125, max_instructions=30_000, sampling=_PLAN)
    points = _sampled_points((64, 96, 128)) + [soplex]
    spool = str(tmp_path / "spool")
    run_supervised_sweep(points, jobs=1, telemetry=spool,
                         trace_store=str(tmp_path / "traces"))
    records = [e for e in SweepAggregator(spool).poll()
               if e["kind"] == "trace_record"]
    assert [(e["point"], e["points"]) for e in records] == [
        ("astar_r1(Rivers)/base", 3), ("soplex(ref)/cfd", 1),
    ]


def test_prewarm_skips_groups_the_result_cache_serves(tmp_path):
    """A pool's workers answer cached points from the result cache, so
    their trace group is not recorded, even past the parent's first
    miss."""
    from repro.obs.telemetry import SweepAggregator
    from repro.perf.tracestore import TraceStore

    cache = ResultCache(root=str(tmp_path / "cache"))
    run_supervised_sweep(_sampled_points(), jobs=1, cache=cache)
    soplex = SweepPoint(workload="soplex", variant="cfd", input_name="ref",
                        scale=0.125, max_instructions=30_000, sampling=_PLAN)
    store = TraceStore(root=str(tmp_path / "traces"))
    spool = str(tmp_path / "spool")
    outcomes = run_supervised_sweep([soplex] + _sampled_points(), jobs=2,
                                    cache=cache, trace_store=store,
                                    telemetry=spool)
    records = [e for e in SweepAggregator(spool).poll()
               if e["kind"] == "trace_record"]
    assert [e["point"] for e in records] == ["soplex(ref)/cfd"]
    assert store.counters()["stores"] == 1
    assert outcomes[0].ok and not outcomes[0].cached
    assert all(o.ok and o.cached and o.attempts == 0 for o in outcomes[1:])


def _reference_points():
    """The four reference cases at two machine sizes.  Unlike the
    tests above, the plan bounds the warming window (``window=``)."""
    from repro.core import memory_bound_config, sandy_bridge_config
    from repro.core.config import scale_window
    from repro.perf import REFERENCE_CASES

    plan = _PLAN + ",window=2000"
    return [
        SweepPoint(case.workload, case.variant, case.input_name,
                   config=scale_window(
                       memory_bound_config() if case.config == "memory_bound"
                       else sandy_bridge_config(), rob),
                   scale=0.125, max_instructions=30_000, sampling=plan)
        for case in REFERENCE_CASES
        for rob in (48, 168)
    ]


def _canonical_payloads(outcomes):
    """Whole result payloads as canonical JSON, less the ``created``
    wall-clock stamp: stats, sampling report, metrics and config
    fingerprint must all match to the byte."""
    assert all(o.ok for o in outcomes)
    payloads = []
    for outcome in outcomes:
        payload = dict(outcome.result.payload)
        payload.pop("created")
        payloads.append(json.dumps(payload, sort_keys=True))
    return payloads


@pytest.mark.parametrize("jobs", [1, 2])
def test_trace_store_payloads_identical_off_cold_and_warm(tmp_path, jobs):
    from repro.perf.tracestore import TraceStore

    root = str(tmp_path / "traces")
    off = run_supervised_sweep(_reference_points(), jobs=jobs)
    cold = run_supervised_sweep(_reference_points(), jobs=jobs,
                                trace_store=TraceStore(root=root))
    warm_store = TraceStore(root=root)
    warm = run_supervised_sweep(_reference_points(), jobs=jobs,
                                trace_store=warm_store)
    assert _canonical_payloads(cold) == _canonical_payloads(off)
    assert _canonical_payloads(warm) == _canonical_payloads(off)
    assert all((o.trace or {}).get("source") == "hit" for o in cold + warm)
    assert warm_store.counters()["stores"] == 0


# -- recording overlapped with the pool ------------------------------------


def _two_group_points():
    """Two astar machine sizes (one trace group) and soplex (another)."""
    return _sampled_points() + [
        SweepPoint(workload="soplex", variant="cfd", input_name="ref",
                   scale=0.125, max_instructions=30_000, sampling=_PLAN),
    ]


def test_pool_runs_first_group_before_second_is_recorded(tmp_path,
                                                        monkeypatch):
    """The parent records group 2 while the pool simulates group 1,
    not every group before it submits anything."""
    from concurrent.futures import ProcessPoolExecutor

    import repro.rel.supervise as supervise

    calls = []
    real_prewarm = supervise.prewarm_traces
    real_submit = ProcessPoolExecutor.submit

    def prewarm(points, *args, **kwargs):
        calls.append(("prewarm", tuple(p.workload for p in points)))
        return real_prewarm(points, *args, **kwargs)

    def submit(self, fn, *args, **kwargs):
        if fn is supervise._supervised_simulate_point:
            calls.append(("submit", args[0].workload))
        return real_submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(supervise, "prewarm_traces", prewarm)
    monkeypatch.setattr(ProcessPoolExecutor, "submit", submit)
    outcomes = run_supervised_sweep(_two_group_points(), jobs=2,
                                    trace_store=str(tmp_path / "traces"))
    assert all(o.ok for o in outcomes)
    prewarms = [call for call in calls if call[0] == "prewarm"]
    assert prewarms == [("prewarm", ("astar_r1", "astar_r1")),
                        ("prewarm", ("soplex",))]
    assert calls.index(("submit", "astar_r1")) < calls.index(prewarms[1])


def test_pooled_trace_reuse_records_each_group_once(tmp_path):
    from repro.obs.telemetry import SweepAggregator
    from repro.perf.tracestore import TraceStore

    baseline = run_supervised_sweep(_two_group_points(), jobs=1)
    store = TraceStore(root=str(tmp_path / "traces"))
    spool = str(tmp_path / "spool")
    outcomes = run_supervised_sweep(_two_group_points(), jobs=2,
                                    trace_store=store, telemetry=spool)
    assert all(o.ok for o in outcomes)
    assert _stats_blobs(outcomes) == _stats_blobs(baseline)
    assert store.counters()["stores"] == 2
    assert [(o.trace or {}).get("source") for o in outcomes] == ["hit"] * 3
    records = [e for e in SweepAggregator(spool).poll()
               if e["kind"] == "trace_record"]
    assert sorted((e["point"], e["points"]) for e in records) == [
        ("astar_r1(Rivers)/base", 2), ("soplex(ref)/cfd", 1),
    ]


def test_one_shot_pool_is_sized_from_held_points_too(tmp_path, monkeypatch):
    import repro.rel.supervise as supervise

    pools = []

    class RecordingPool(supervise.WorkerPool):
        def __init__(self, jobs):
            super().__init__(jobs)
            pools.append(self)

    monkeypatch.setattr(supervise, "WorkerPool", RecordingPool)
    outcomes = run_supervised_sweep(_sampled_points(), jobs=2,
                                    trace_store=str(tmp_path / "traces"))
    assert all(o.ok for o in outcomes)
    assert [pool.jobs for pool in pools] == [2]
