"""Determinism: identical inputs must produce identical simulations.

The whole evaluation methodology (same-work speedups, EXPERIMENTS.md
records, cached bench runs) rests on the simulator being a pure function
of (program, config).  These tests guard against accidental
nondeterminism (set/dict iteration order in schedulers, unseeded
randomness in predictors or allocation policies).
"""

from repro.core import memory_bound_config, sandy_bridge_config, simulate
from repro.workloads import get_workload


def _fingerprint(result):
    stats = result.stats
    return (
        stats.cycles,
        stats.retired,
        stats.mispredicts,
        stats.squashed,
        stats.recoveries,
        stats.bq_misses,
        stats.checkpoints_taken,
        round(result.energy.total_pj, 3),
        tuple(sorted(stats.events.items())),
    )


def test_identical_runs_are_identical():
    built = get_workload("soplex").build("cfd", "ref", scale=0.125, seed=3)
    first = simulate(built.program, sandy_bridge_config())
    second = simulate(built.program, sandy_bridge_config())
    assert _fingerprint(first) == _fingerprint(second)


def test_rebuilt_workload_is_identical():
    workload = get_workload("astar_r1")
    a = workload.build("cfd", "BigLakes", scale=0.125, seed=7)
    b = workload.build("cfd", "BigLakes", scale=0.125, seed=7)
    first = simulate(a.program, memory_bound_config())
    second = simulate(b.program, memory_bound_config())
    assert _fingerprint(first) == _fingerprint(second)


def test_different_seed_changes_data_not_structure():
    workload = get_workload("jpeg_compr")
    a = workload.build("base", scale=0.125, seed=1)
    b = workload.build("base", scale=0.125, seed=2)
    first = simulate(a.program, sandy_bridge_config())
    second = simulate(b.program, sandy_bridge_config())
    # same instruction mix, different branch outcomes
    assert first.stats.retired == second.stats.retired
    assert first.stats.cycles != second.stats.cycles


def test_predictor_state_is_per_simulation():
    """Back-to-back simulations must not leak predictor state."""
    built = get_workload("gromacs").build("base", scale=0.125)
    config = sandy_bridge_config()
    first = simulate(built.program, config)
    warmed = simulate(built.program, config)
    assert first.stats.mispredicts == warmed.stats.mispredicts


def test_tracer_matches_run():
    """A run traced as ``repro trace`` does, its stopped cycle ended for
    the recorder, reproduces an untraced run()'s counts exactly."""
    from repro.core.pipeline import Pipeline
    from repro.obs.events import CycleRecorder

    built = get_workload("hammock").build("base", scale=0.125)
    plain = Pipeline(built.program, sandy_bridge_config())
    plain_stats = plain.run()
    traced = Pipeline(built.program, sandy_bridge_config())
    recorder = CycleRecorder()
    traced.attach_observer(recorder)
    traced.run()
    traced.obs.on_cycle_end(traced)
    assert traced.stats.retired == plain_stats.retired
    assert traced.stats.cycles == plain_stats.cycles
    assert traced.cycle == plain.cycle
    assert len(recorder.records) == plain_stats.cycles + 1
