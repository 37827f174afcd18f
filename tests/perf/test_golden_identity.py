"""Hot-loop optimizations must be semantics-preserving.

``golden_stats.json`` stores the complete ``stats.to_dict()`` of four
reference simulations (three distinct workloads — astar, bzip2, soplex —
across both stock configs and the base/cfd/dfd/tq variants), recorded on
the pre-optimization seed.  Any timing or architectural divergence
introduced by a pipeline/predictor/executor speedup shows up here as a
field-level diff, not a vague "numbers moved".

``golden_sampled.json`` does the same for three *sampled* runs: their
extrapolated ``stats.to_dict()`` and ``sampling`` report, under a plan
whose detailed warm-up exercises ``Pipeline.run_slice``'s warm-up path.
"""

import json
import os

import pytest

from repro.core import memory_bound_config, sandy_bridge_config, simulate
from repro.perf.sample import SampledSimulator, SamplingPlan
from repro.workloads import get_workload

_HERE = os.path.dirname(__file__)
_CONFIGS = {
    "sandy_bridge": sandy_bridge_config,
    "memory_bound": memory_bound_config,
}


def _load(name):
    with open(os.path.join(_HERE, name)) as fh:
        return json.load(fh)


_GOLDEN = _load("golden_stats.json")
_GOLDEN_SAMPLED = _load("golden_sampled.json")


def _diffs(got, want):
    """Field-level ``{key: (got, want)}`` of two dicts, via JSON bytes."""
    got_d = json.loads(json.dumps(got, sort_keys=True))
    return {
        key: (got_d.get(key), want.get(key))
        for key in sorted(set(got_d) | set(want))
        if got_d.get(key) != want.get(key)
    }


def _build(case):
    return get_workload(case["workload"]).build(
        case["variant"], case["input"], case["scale"], case.get("seed", 1)
    )


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_stats_byte_identical_to_golden(name):
    case = _GOLDEN[name]
    config = _CONFIGS[case["config"]]()
    result = simulate(_build(case).program, config,
                      max_instructions=case["max_instructions"])
    got = json.dumps(result.stats.to_dict(), sort_keys=True)
    want = json.dumps(case["stats"], sort_keys=True)
    if got != want:  # diff the individual fields for a readable failure
        pytest.fail("stats diverged from golden %s: %r"
                    % (name, _diffs(result.stats.to_dict(), case["stats"])))


def test_sampled_stats_byte_identical_to_golden():
    failures = {}
    for name, case in sorted(_GOLDEN_SAMPLED.items()):
        result = SampledSimulator(
            _build(case).program, _CONFIGS[case["config"]](),
            SamplingPlan.from_spec(case["plan"]),
        ).run(case["max_instructions"])
        for part, got in (("stats", result.stats.to_dict()),
                          ("sampling", result.sampling)):
            if (json.dumps(got, sort_keys=True)
                    != json.dumps(case[part], sort_keys=True)):
                failures["%s.%s" % (name, part)] = _diffs(got, case[part])
    if failures:
        pytest.fail("sampled runs diverged from golden: %r" % (failures,))
