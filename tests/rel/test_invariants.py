"""The independent invariant checker: silent when the core is healthy
(bit-identical stats on the reference cases), loud when it is not.
"""

import json

import pytest

from repro.core import memory_bound_config, sandy_bridge_config, simulate
from repro.errors import SimulatorInvariantError
from repro.obs.events import MultiObserver
from repro.perf.speed import REFERENCE_CASES
from repro.rel import BQPointerCorrupt, CommittedStateCorrupt, InvariantChecker
from repro.workloads import get_workload


#: The reference cases' full-detail geometry: scale 0.125, and a budget
#: per case.
_FULL_SCALE = 0.125
_FULL_BUDGETS = {"astar_base_membound": 20_000, "astar_dfd": 15_000,
                 "bzip2_tq": 20_000, "soplex_cfd": 20_000}


def _case_config(case):
    return (memory_bound_config() if case.config == "memory_bound"
            else sandy_bridge_config())


def _stats_json(result):
    return json.dumps(result.stats.to_dict(), sort_keys=True)


@pytest.mark.parametrize("case", REFERENCE_CASES, ids=lambda c: c.name)
def test_checker_changes_no_architectural_result(case):
    """Acceptance: the checker on the four reference simulations changes
    nothing — stats are bit-identical with it on or off."""
    built = get_workload(case.workload).build(
        case.variant, case.input_name, scale=_FULL_SCALE, seed=1
    )
    budget = _FULL_BUDGETS[case.name]
    plain = simulate(built.program, _case_config(case),
                     max_instructions=budget)
    checker = InvariantChecker(arch_check_every=500)
    checked = simulate(built.program, _case_config(case),
                       max_instructions=budget, observer=checker)
    assert _stats_json(checked) == _stats_json(plain)
    counters = checker.counters()
    assert counters["retired"] == checked.stats.retired
    assert counters["arch_checks"] > 0
    assert counters["cycle_checks"] > 0
    assert counters["deep_checks"] > 0


def _astar():
    built = get_workload("astar_r1").build("base", "Rivers", scale=0.125,
                                           seed=1)
    return built.program


def test_occupancy_violation_detected_same_cycle():
    # Mid-run trigger: the cold-start icache misses mean nothing fetches
    # for the first few hundred cycles, and the diagnostic dump should
    # show real events.
    injector = BQPointerCorrupt(trigger_cycle=1000)
    checker = InvariantChecker()
    with pytest.raises(SimulatorInvariantError) as exc:
        simulate(_astar(), sandy_bridge_config(), max_instructions=4000,
                 observer=MultiObserver([injector, checker]))
    assert injector.fired
    message = str(exc.value)
    assert "occupancy out of range" in message
    assert "recent events:" in message  # diagnosable from the text alone


def test_committed_state_corruption_caught_by_independent_oracle():
    # r15 is unused by the workload, so the pipeline's *built-in* checker
    # (which replays on the corrupted committed state) can never notice;
    # only the independent oracle's full-state cross-check can.
    injector = CommittedStateCorrupt(arch_reg=15, trigger_cycle=200)
    checker = InvariantChecker(arch_check_every=1)
    with pytest.raises(SimulatorInvariantError) as exc:
        simulate(_astar(), sandy_bridge_config(), max_instructions=4000,
                 observer=MultiObserver([injector, checker]))
    assert injector.fired
    assert "independent oracle" in str(exc.value)


def test_checker_counter_surface():
    checker = InvariantChecker()
    result = simulate(_astar(), sandy_bridge_config(),
                      max_instructions=2000, observer=checker)
    counters = checker.counters()
    # Conservation itself is asserted every cycle inside the checker; here
    # we only sanity-check the exported counter surface.
    assert counters["retired"] == result.stats.retired
    assert counters["fetched"] >= counters["retired"] + counters["squashed"]
    assert counters["cycle_checks"] >= result.stats.cycles
