"""Run metrics: the flat snapshot and the helpers that build it.

``golden_metrics.json`` stores the ``metrics_snapshot()`` of three runs
(an ISL-TAGE full run, a gshare full run and a sampled run) as ordered
``[name, value]`` pairs.  Cache payloads and WAL ``done`` records are
unsorted JSON, so a snapshot must keep its names, values *and* order.
"""

import json
import os
import re

import pytest

from repro.core import memory_bound_config, sandy_bridge_config, simulate
from repro.obs.metrics import flatten, histogram
from repro.perf.sample import SampledSimulator, SamplingPlan
from repro.workloads import get_workload

#: The metric naming scheme (docs/OBSERVABILITY.md): dotted lowercase
#: segments of [a-z0-9_], the first starting with a letter.
_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$")

_CONFIGS = {
    "sandy_bridge": sandy_bridge_config,
    "memory_bound": memory_bound_config,
}

with open(os.path.join(os.path.dirname(__file__), "golden_metrics.json")) as fh:
    _GOLDEN = json.load(fh)


@pytest.mark.parametrize("bad", ["", "Core.cycles", "core..x", "1core", "a b",
                                 ".core", "core."])
def test_bad_names_rejected(bad):
    # The scheme test below would pass vacuously on a pattern that
    # accepted these.
    assert not _NAME_RE.match(bad)


def test_snapshot_names_follow_the_scheme(count_program):
    snap = simulate(count_program, sandy_bridge_config()).metrics_snapshot()
    assert [name for name in snap if not _NAME_RE.match(name)] == []


def test_histogram_observe_and_snapshot():
    snap = histogram({2: 5, 0: 10})
    assert snap["count"] == 15
    assert snap["buckets"] == {"0": 10, "2": 5}
    assert list(snap["buckets"]) == ["0", "2"]
    assert snap["sum"] == 10.0
    assert snap["mean"] == pytest.approx(10 / 15)
    # Non-numeric values and empty distributions carry no sum or mean.
    assert histogram({"alu": 3}) == {"count": 3, "buckets": {"alu": 3}}
    assert histogram({}) == {"count": 0, "buckets": {}}


def test_flatten_keeps_numeric_stats():
    out = {"core.cycles": 7}
    stats = {"hits": 10, "miss_rate": 0.25, "label": "l1d", "l2": {"hits": 1}}
    flatten("memsys.l1d", stats, out)
    assert list(out.items()) == [
        ("core.cycles", 7),
        ("memsys.l1d.hits", 10),
        ("memsys.l1d.miss_rate", 0.25),
    ]


def test_snapshot_round_trips_through_json(count_program):
    snap = simulate(count_program, sandy_bridge_config()).metrics_snapshot()
    assert json.loads(json.dumps(snap)) == snap


def test_metrics_snapshot_covers_the_pipeline(count_program):
    result = simulate(count_program, sandy_bridge_config())
    snap = result.metrics_snapshot()
    # every subsystem contributed metrics
    assert snap["core.cycles"] == result.stats.cycles
    assert snap["core.retired"] == result.stats.retired
    assert snap["bq.pops"] == result.stats.bq_pops > 0
    assert snap["memsys.l1d.hits"] >= 0
    assert snap["memsys.l1d.mshr.allocations"] >= 0
    assert snap["memsys.l1d.mshr.occupancy"]["count"] == result.stats.cycles
    assert snap["bq.hw.length"] == result.pipeline.hw_bq.length
    assert "branch.mispredict_levels" in snap
    assert "branch.predictor.tables" in snap
    assert snap["energy.total_nj"] == result.energy.total_nj


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_snapshot_matches_golden(name):
    case = _GOLDEN[name]
    program = get_workload(case["workload"]).build(
        case["variant"], case["input"], case["scale"], 1
    ).program
    config = _CONFIGS[case["config"]](predictor=case["predictor"])
    if case["plan"]:
        result = SampledSimulator(
            program, config, SamplingPlan.from_spec(case["plan"])
        ).run(case["max_instructions"])
    else:
        result = simulate(program, config,
                          max_instructions=case["max_instructions"])
    got = json.loads(json.dumps(list(result.metrics_snapshot().items())))
    want = case["metrics"]
    assert [n for n, _ in got] == [n for n, _ in want]
    values = dict(want)
    assert {n: v for n, v in got if v != values[n]} == {}
    # Byte identity, histogram bucket order included.
    assert json.dumps(got) == json.dumps(want)
