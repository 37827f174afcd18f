"""Batched lockstep functional execution: divergence and faithfulness.

The batch layer only schedules; every architectural step runs through
the lanes' own scalar :class:`FunctionalExecutor` handlers.  These tests
pin the contract: lanes halting at different instruction counts retire
independently, and per-lane results are *identical* to running the
scalar executors one after another.
"""

import pytest

from repro.arch.executor import FunctionalExecutor, run_program
from repro.arch.state import ArchState
from repro.isa import assemble
from repro.perf.batch import BatchedFunctionalExecutor
from repro.perf.sweep import SweepPoint
from repro.rel import run_supervised_sweep

_COUNTDOWN = """
.text
main:
    addi r1, r0, %d
loop:
    addi r2, r2, 3
    addi r1, r1, -1
    bne  r1, r0, loop
    halt
"""


def _countdown(iterations):
    return assemble(_COUNTDOWN % iterations, name="count-%d" % iterations)


def _scalar_reference(programs):
    """Run each program to halt on its own scalar executor."""
    return [run_program(program) for program in programs]


@pytest.fixture
def divergent_programs():
    # Wildly different lengths: lanes halt after ~17, ~152 and ~3002
    # retired instructions respectively.
    return [_countdown(5), _countdown(50), _countdown(1000)]


def test_divergent_lanes_match_scalar_runs(divergent_programs):
    scalars = _scalar_reference(divergent_programs)
    batch = BatchedFunctionalExecutor(
        [(program, None) for program in divergent_programs]
    )
    batch.run()
    assert batch.active == 0
    assert batch.halted() == [True, True, True]
    for lane, scalar in zip(batch.lanes, scalars):
        assert lane.retired == scalar.retired
        assert lane.state.same_architectural_state(scalar.state), \
            lane.state.diff(scalar.state)
    assert batch.retired() == [s.retired for s in scalars]


def test_early_halt_freezes_lane(divergent_programs):
    batch = BatchedFunctionalExecutor(
        [(program, None) for program in divergent_programs]
    )
    # After 100 lockstep rounds the short lane has long halted.
    for _ in range(100):
        batch.step()
    assert batch.halted()[0] is True
    frozen = batch.retired()[0]
    batch.run()
    assert batch.retired()[0] == frozen  # never advanced again


def test_per_lane_budget_caps_this_call(divergent_programs):
    batch = BatchedFunctionalExecutor(
        [(program, None) for program in divergent_programs]
    )
    first = batch.run(max_instructions=10)
    # Short lane halts at 17 > 10? No: it halts *under* the cap only if
    # it reaches halt first; 10 caps every lane this call.
    assert all(count <= 10 for count in first)
    batch.run()  # drain
    scalars = _scalar_reference(divergent_programs)
    assert batch.retired() == [s.retired for s in scalars]


def test_accepts_prebuilt_executor_lanes():
    program = _countdown(10)
    lane = FunctionalExecutor(program, ArchState(program), 1_000_000)
    batch = BatchedFunctionalExecutor([lane])
    batch.run()
    assert batch.halted() == [True]
    assert batch.retired()[0] == run_program(program).retired


def test_run_sweep_batched_executor():
    points = [
        SweepPoint("bzip2", "tq", "chicken", scale=0.125,
                   max_instructions=3000),
        SweepPoint("soplex", "cfd", "ref", scale=0.125,
                   max_instructions=3000),
    ]
    outcomes = run_supervised_sweep(points, executor="batched")
    assert len(outcomes) == 2
    for outcome in outcomes:
        assert outcome.ok
        assert outcome.result is None  # functional-only: no timing stats
        assert outcome.functional["mode"] == "functional"
        assert outcome.functional["retired"] == 3000
        assert outcome.functional["batch_width"] == 2
        assert outcome.attempts == 1
        assert outcome.seconds >= 0.0


def test_run_sweep_batched_matches_scalar_functional():
    point = SweepPoint("bzip2", "tq", "chicken", scale=0.125,
                       max_instructions=4000)
    [outcome] = run_supervised_sweep([point], executor="batched")
    from repro.workloads import get_workload

    built = get_workload("bzip2").build("tq", "chicken", 0.125, 1)
    scalar = FunctionalExecutor(built.program, ArchState(
        built.program,
        bq_size=point.config.bq_size, vq_size=point.config.vq_size,
        tq_size=point.config.tq_size, tq_bits=point.config.tq_bits,
    ))
    scalar.run(4000)
    assert outcome.functional["retired"] == scalar.retired
    assert outcome.functional["final_pc"] == scalar.state.pc


def test_unknown_executor_rejected():
    with pytest.raises(ValueError):
        run_supervised_sweep([], executor="threads")
