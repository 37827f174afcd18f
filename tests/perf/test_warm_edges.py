"""Warm-trace edge cases.

The portable trace's contract is that snapshot/offset derivation at
*arbitrary* load-time boundaries reproduces exactly what live functional
warming produces, for any plan geometry a sweep can throw at it — tiny
budgets swallowed whole by the head/tail strata, zero-gap plans that
never warm functionally, windowed warming that replays only a suffix,
and torn files that must refuse to load rather than mis-warm.
"""

from array import array

import pytest

from repro.arch.memory import Memory
from repro.arch.state import ArchState
from repro.core import sandy_bridge_config
from repro.core.pipeline import Pipeline
from repro.core.simulator import Simulator
from repro.core.warm import (
    PortableWarmTrace,
    record_portable_trace,
    warm_advance,
)
from repro.perf.sample import SampledSimulator, SamplingPlan
from repro.workloads import get_workload


def _build(workload="bzip2", variant="tq", input_name="chicken"):
    return get_workload(workload).build(variant, input_name, 0.25, 1)


def _architecturally_equal(sampled, full):
    assert sampled.stats.retired == full.stats.retired
    full_state = full.pipeline.checker.state
    sampled_state = sampled.pipeline.checker.state
    assert sampled_state.same_architectural_state(full_state), \
        sampled_state.diff(full_state)


# ------------------------------------------------- degenerate plan shapes


def test_budget_smaller_than_head_and_tail_strata():
    """head=tail=2000 against a 3000-instruction budget: the strata
    overlap and the whole run is detailed — still exact."""
    built = _build()
    plan = SamplingPlan(interval_length=400, detail_warmup=100, period=2000,
                        head_detail=2000, tail_detail=2000)
    budget = 3000
    full = Simulator(built.program, sandy_bridge_config()).run(budget)
    sampled = SampledSimulator(
        built.program, sandy_bridge_config(), plan).run(budget)
    _architecturally_equal(sampled, full)
    assert sampled.sampling["measured_fraction"] == pytest.approx(1.0)


def test_zero_gap_plan_never_warms_functionally():
    """period == warmup + interval leaves a zero-instruction warm gap
    between consecutive detailed windows."""
    built = _build()
    plan = SamplingPlan(interval_length=400, detail_warmup=100, period=500,
                        head_detail=500, tail_detail=500)
    assert plan.warm_length == 0
    budget = 12_000
    full = Simulator(built.program, sandy_bridge_config()).run(budget)
    sampled = SampledSimulator(
        built.program, sandy_bridge_config(), plan).run(budget)
    _architecturally_equal(sampled, full)


def test_budget_beyond_halt_still_exact():
    """A budget far past the program's natural halt: the trace clips."""
    built = _build(workload="astar_r1", variant="base", input_name="Rivers")
    plan = SamplingPlan(interval_length=400, detail_warmup=100, period=2000,
                        head_detail=500, tail_detail=500)
    budget = 50_000_000
    full = Simulator(built.program, sandy_bridge_config()).run(budget)
    sampled = SampledSimulator(
        built.program, sandy_bridge_config(), plan).run(budget)
    _architecturally_equal(sampled, full)


# ---------------------------------------------- derivation at load time


def test_materialize_at_boundaries_unmarked_at_record_time():
    """Positions chosen only at load time (including off-stride ones)
    must replay to exactly the live-warmed machine state."""
    built = _build()
    budget = 9_000
    recorded = record_portable_trace(
        Pipeline(built.program, sandy_bridge_config()), budget)
    reloaded = PortableWarmTrace.from_bytes(recorded.to_bytes())
    for target in (1, 4096, 5000, 8191):
        live = Pipeline(built.program, sandy_bridge_config())
        warm_advance(live, target)
        live_stats = live.run_slice(1000, 0).to_dict()

        derived = Pipeline(built.program, sandy_bridge_config())
        trace = reloaded.materialize(derived, budget, [target], [target])
        from repro.core.warm import replay_warm_events

        replay_warm_events(derived, trace, 0, trace.offsets[target])
        derived.restore_committed_state(trace.snapshots[target], target)
        assert derived.run_slice(1000, 0).to_dict() == live_stats


# ------------------------------------------------------ windowed warming


def test_warm_window_is_architecturally_exact():
    """Replaying only the last N instructions' events before each
    teleport changes microarchitectural warm-up (timing), never
    architectural results."""
    built = _build()
    budget = 20_000
    base_plan = SamplingPlan(interval_length=400, detail_warmup=100,
                             period=2000, head_detail=500, tail_detail=500)
    windowed = SamplingPlan(interval_length=400, detail_warmup=100,
                            period=2000, head_detail=500, tail_detail=500,
                            warm_window=600)
    assert windowed.fingerprint() != base_plan.fingerprint()
    full = Simulator(built.program, sandy_bridge_config()).run(budget)
    sampled = SampledSimulator(
        built.program, sandy_bridge_config(), windowed).run(budget)
    _architecturally_equal(sampled, full)
    # Same plan, provided trace vs self-recorded: byte-identical stats.
    again = SampledSimulator(
        built.program, sandy_bridge_config(), windowed).run(budget)
    assert again.stats.to_dict() == sampled.stats.to_dict()


def test_window_spec_parses_and_rejects_negative():
    from repro.errors import ConfigError

    plan = SamplingPlan.from_spec(
        "interval=400,warmup=100,period=2000,window=600")
    assert plan.warm_window == 600
    with pytest.raises(ConfigError):
        SamplingPlan(warm_window=-1).validate()


def test_sampled_run_leaves_no_second_data_image():
    """A sampled run keeps no second copy of the data image on the
    program, and the machines built on it copy the image, never alias
    it."""
    program = _build().program
    pristine = program.data.words()
    plan = SamplingPlan.from_spec(
        "interval=400,warmup=100,period=2000,head=500,tail=500")
    SampledSimulator(program, sandy_bridge_config(), plan).run(20_000)
    images = [name for name, value in vars(program).items()
              if isinstance(value, (Memory, dict, array))
              and len(value) == len(program.data)]
    assert images == ["data"]
    assert isinstance(program.data, Memory)
    ArchState(program).memory.store_word(next(iter(program.data)), 0xDEAD)
    assert program.data.words() == pristine
