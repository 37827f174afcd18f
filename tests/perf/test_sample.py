"""Sampled-simulation correctness.

The sampling engine is trustworthy only if (a) the plan parser rejects
nonsense, (b) the trace-replay warm engine leaves the machine in exactly
the state live functional warming would, (c) a sampled run's committed
architectural state is identical to the full-detail run's (sampling may
only approximate *timing*, never *results*), and (d) the error
accounting is honest: the report says how much was measured and how wide
the confidence interval is.
"""

import pytest

from repro.core import sandy_bridge_config
from repro.core.pipeline import Pipeline
from repro.core.simulator import Simulator
from repro.core.warm import replay_warm_events, warm_advance
from repro.errors import ConfigError
from repro.perf.sample import SampledSimulator, SamplingPlan
from repro.rel import InvariantChecker
from repro.workloads import get_workload
from tests.perf.warm_reference import record_warm_trace

#: Small plan geometry so tests sample real workloads in well under a
#: second while still exercising head/tail strata and several windows.
_PLAN = SamplingPlan(interval_length=400, detail_warmup=100, period=2000,
                     head_detail=500, tail_detail=500)
_BUDGET = 20_000


def _build(workload="bzip2", variant="tq", input_name="chicken", scale=0.25):
    return get_workload(workload).build(variant, input_name, scale, 1)


# ------------------------------------------------------------- the plan


def test_spec_default():
    assert SamplingPlan.from_spec("default") == SamplingPlan()
    assert SamplingPlan.from_spec(None) == SamplingPlan()


def test_spec_overrides_fields():
    plan = SamplingPlan.from_spec("interval=400,warmup=100,period=2000")
    assert plan.interval_length == 400
    assert plan.detail_warmup == 100
    assert plan.period == 2000
    # Unspecified fields keep their defaults.
    assert plan.head_detail == SamplingPlan().head_detail


@pytest.mark.parametrize("spec", [
    "interval=abc",            # not an integer
    "bogus=1",                 # unknown key
    "interval",                # no '='
    "interval=0",              # must be positive
    "interval=500,period=400", # period cannot cover the window
    "head=-1",                 # negative stratum
])
def test_spec_rejects_nonsense(spec):
    with pytest.raises(ConfigError):
        SamplingPlan.from_spec(spec)


def test_fingerprint_distinguishes_plans():
    a = SamplingPlan().fingerprint()
    b = SamplingPlan(interval_length=401).fingerprint()
    assert a != b
    assert a == SamplingPlan().fingerprint()  # deterministic


# ------------------------------------------- trace-replay warm equivalence


def test_trace_replay_equals_live_warming():
    """Replaying recorded warm events must leave the machine in exactly
    the state live functional warming produces — verified by running a
    detailed slice afterwards and comparing the *complete* stats dict."""
    built = _build()
    skip = 6000
    live = Pipeline(built.program, sandy_bridge_config())
    warm_advance(live, skip)
    live_stats = live.run_slice(1500, 0).to_dict()

    replayed = Pipeline(built.program, sandy_bridge_config())
    trace = record_warm_trace(replayed, skip, [skip], [skip])
    replay_warm_events(replayed, trace, 0, trace.offsets[skip])
    replayed.restore_committed_state(trace.snapshots[skip], skip)
    replayed_stats = replayed.run_slice(1500, 0).to_dict()

    assert live_stats == replayed_stats


# --------------------------------------------------- sampled-run contract


def test_sampled_architectural_state_matches_full():
    built = _build()
    full = Simulator(built.program, sandy_bridge_config()).run(_BUDGET)
    sampled = SampledSimulator(
        built.program, sandy_bridge_config(), _PLAN
    ).run(_BUDGET)
    # Sampling approximates timing only: the committed instruction count
    # and the final committed architectural state are exact.
    assert sampled.stats.retired == full.stats.retired
    full_state = full.pipeline.checker.state
    sampled_state = sampled.pipeline.checker.state
    assert sampled_state.same_architectural_state(full_state), \
        sampled_state.diff(full_state)


def test_sampling_report_is_honest():
    built = _build()
    result = SampledSimulator(
        built.program, sandy_bridge_config(), _PLAN
    ).run(_BUDGET)
    report = result.sampling
    assert report["fingerprint"] == _PLAN.fingerprint()
    assert report["intervals"] >= 1
    assert 0.0 < report["measured_fraction"] < 1.0
    assert report["ipc_rel_ci95"] is None or report["ipc_rel_ci95"] >= 0.0
    assert report["total_instructions"] == result.stats.retired


def test_sampled_ipc_within_loose_bound_of_full():
    """At test scale the estimate is noisy but must stay in the right
    ballpark — a teleport/extrapolation bug produces errors far beyond
    this bound (and did, during development)."""
    built = _build()
    full = Simulator(built.program, sandy_bridge_config()).run(_BUDGET)
    sampled = SampledSimulator(
        built.program, sandy_bridge_config(), _PLAN
    ).run(_BUDGET)
    assert sampled.ipc == pytest.approx(full.stats.ipc, rel=0.25)


def test_sampled_run_is_deterministic():
    built = _build()
    first = SampledSimulator(
        built.program, sandy_bridge_config(), _PLAN
    ).run(_BUDGET)
    second = SampledSimulator(
        built.program, sandy_bridge_config(), _PLAN
    ).run(_BUDGET)
    assert first.stats.to_dict() == second.stats.to_dict()
    assert first.sampling == second.sampling


def test_invariant_checker_rides_sampled_run():
    """The independent oracle fast-forwards across warm gaps
    (``on_warm_skip``) and validates inside detailed intervals only —
    a sampled run under ``--check`` must come out clean."""
    built = _build()
    checker = InvariantChecker()
    result = SampledSimulator(
        built.program, sandy_bridge_config(), _PLAN
    ).run(_BUDGET, observer=checker)
    assert result.stats.retired > 0


def test_full_detail_unaffected_by_sampling_import():
    """Importing/using the sampling machinery must not perturb a plain
    full-detail run (the golden-identity suite pins the absolute
    values; this pins run-to-run stability in-process)."""
    built = _build()
    a = Simulator(built.program, sandy_bridge_config()).run(5000)
    b = Simulator(built.program, sandy_bridge_config()).run(5000)
    assert a.stats.to_dict() == b.stats.to_dict()
