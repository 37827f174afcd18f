"""Observability must be free when off: no-op hooks, bounded dispatch cost.

The pipeline guards every hook call with ``if self.obs is not None``, so a
simulation without an attached observer pays one attribute test per stage
boundary and nothing else.  These tests pin that contract: (a) no observer
is attached by default, (b) results are bit-identical with and without a
no-op observer, (c) the disabled path is not measurably slower than the
null-observer path (best-of-N smoke check with generous margins — this
guards against someone accidentally making the hooks unconditional, not
against microbenchmark noise).  Each timing runs its two sides
alternately, so a burst of host contention slows both, not whichever
side happened to run first.
"""

import time

from repro.core.pipeline import Pipeline
from repro.obs.events import PipelineObserver


def _run_once(program, config, observer=None):
    pipeline = Pipeline(program, config)
    if observer is not None:
        pipeline.attach_observer(observer)
    start = time.perf_counter()
    stats = pipeline.run()
    return time.perf_counter() - start, stats


def _best_of_alternating(n, side_a, side_b):
    """Best-of-*n* seconds of two runs that each return
    ``(seconds, result)``, taken A then B, then B then A, and so on.

    Returns ``((best_a, result_a), (best_b, result_b))``, each with its
    side's last result.
    """
    sides = (side_a, side_b)
    best = [None, None]
    results = [None, None]
    for run in range(n):
        for side in ((0, 1) if run % 2 == 0 else (1, 0)):
            elapsed, results[side] = sides[side]()
            if best[side] is None or elapsed < best[side]:
                best[side] = elapsed
    return (best[0], results[0]), (best[1], results[1])


def test_no_observer_attached_by_default(count_program, tiny_config):
    pipeline = Pipeline(count_program, tiny_config)
    assert pipeline.obs is None
    pipeline.run()
    assert pipeline.obs is None  # running attaches nothing either


def test_results_identical_with_null_observer(count_program, tiny_config):
    _, plain = _run_once(count_program, tiny_config)
    _, observed = _run_once(count_program, tiny_config, PipelineObserver())
    assert observed.retired == plain.retired
    assert observed.cycles == plain.cycles
    assert observed.mispredicts == plain.mispredicts
    assert observed.bq_pops == plain.bq_pops


def test_disabled_hooks_cost_only_a_guard(count_program, tiny_config):
    # Warm caches/imports, then take best-of-N for each mode.
    _run_once(count_program, tiny_config)
    (disabled, _), (null_obs, _) = _best_of_alternating(
        5, lambda: _run_once(count_program, tiny_config),
        lambda: _run_once(count_program, tiny_config, PipelineObserver()))
    # Disabled must not be slower than running with a no-op observer
    # attached (modulo timer noise on a sub-millisecond workload).
    assert disabled <= null_obs * 1.05 + 2e-3, (disabled, null_obs)
    # And attaching a no-op observer stays a bounded dispatch cost, not a
    # rewrite of the hot loop.
    assert null_obs <= disabled * 1.5 + 2e-3, (disabled, null_obs)


# ----------------------------------------------- fleet-telemetry fast path


def _sweep_points():
    from repro.perf import SweepPoint

    return [
        SweepPoint(workload="soplex", variant="cfd", input_name="ref",
                   scale=0.125, max_instructions=4000),
    ]


def test_disabled_telemetry_is_a_single_none_test(monkeypatch):
    # With no spool directory configured the sweep engines resolve
    # telemetry to None and every call site reduces to one `is None`
    # test — nothing is imported, opened, or written.
    from repro.obs.telemetry import SweepTelemetry
    from repro.rel.supervise import run_supervised_sweep

    monkeypatch.delenv("REPRO_TELEMETRY_DIR", raising=False)
    assert SweepTelemetry.resolve(None) is None
    outcomes = run_supervised_sweep(_sweep_points(), jobs=1)
    assert all(o.ok and o.resources is None for o in outcomes)


def test_disabled_telemetry_overhead_bounded(monkeypatch, tmp_path):
    # Best-of-N timing: the telemetry-off path must not be slower
    # than the instrumented path (2% contract + generous timer-noise
    # margin — telemetry only ever *adds* work, so off <= on holds up to
    # scheduling jitter).
    import json

    from repro.rel.supervise import run_supervised_sweep

    monkeypatch.delenv("REPRO_TELEMETRY_DIR", raising=False)
    run_supervised_sweep(_sweep_points(), jobs=1)  # warm imports/builds

    def sweep(telemetry):
        start = time.perf_counter()
        outcomes = run_supervised_sweep(_sweep_points(), jobs=1,
                                        telemetry=telemetry)
        return time.perf_counter() - start, outcomes

    (off_time, off), (on_time, on) = _best_of_alternating(
        3, lambda: sweep(None), lambda: sweep(str(tmp_path / "spool")))
    assert off_time <= on_time * 1.02 + 20e-3, (off_time, on_time)
    # And identical results, not just comparable speed.
    blob = lambda os_: [json.dumps(o.result.stats.to_dict(),
                                   sort_keys=True) for o in os_]
    assert blob(off) == blob(on)
