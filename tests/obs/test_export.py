"""Exporters: JSONL, Chrome trace-event JSON, run manifest."""

import json

import pytest

from repro.core import sandy_bridge_config, simulate
from repro.core.pipeline import Pipeline
from repro.obs.events import CycleRecorder, EventTracer
from repro.obs.export import (
    MANIFEST_VERSION,
    chrome_trace,
    jsonable,
    run_manifest,
    write_chrome_trace,
    write_jsonl,
)
from repro.workloads import get_workload


@pytest.fixture
def traced(count_program, tiny_config):
    pipeline = Pipeline(count_program, tiny_config)
    tracer = EventTracer()
    sampler = CycleRecorder()
    pipeline.attach_observer(tracer)
    pipeline.attach_observer(sampler)
    pipeline.run()
    return tracer, sampler


def test_jsonable_handles_everything():
    from enum import Enum

    class Color(Enum):
        RED = 1

    assert jsonable(Color.RED) == "RED"
    assert jsonable({Color.RED: [1, (2, 3)]}) == {"RED": [1, [2, 3]]}
    assert jsonable({1: "a"}) == {1: "a"}
    assert jsonable({3, 1, 2}) == [1, 2, 3]
    assert jsonable(None) is None


def test_write_jsonl_round_trips(tmp_path, traced):
    tracer, _ = traced
    path = tmp_path / "events.jsonl"
    write_jsonl(str(path), tracer.iter_events())
    lines = path.read_text().strip().splitlines()
    assert len(lines) == len(tracer.events)
    for line in lines:
        record = json.loads(line)
        assert {"cycle", "kind", "seq", "pc", "op"} <= set(record)


def test_chrome_trace_schema(traced):
    tracer, sampler = traced
    doc = chrome_trace(tracer, sampler, name="count")
    assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
    phases = set()
    for event in doc["traceEvents"]:
        phases.add(event["ph"])
        assert event["ph"] in {"M", "X", "C", "i"}
        if event["ph"] != "M":
            assert isinstance(event["ts"], int)
            assert event["ts"] >= 0
        if event["ph"] == "X":
            assert event["dur"] >= 1
            assert event["cat"] == "instruction"
        if event["ph"] == "C":
            assert {"rob", "iq", "bq", "tq", "mshr"} <= set(event["args"])
    assert "X" in phases  # lifecycles present
    assert "C" in phases  # occupancy counters present
    assert doc["otherData"]["dropped"]["events"] == tracer.events.dropped
    # the whole document is JSON-serialisable as-is
    assert json.loads(json.dumps(doc))


def test_write_chrome_trace_file(tmp_path, traced):
    tracer, sampler = traced
    path = tmp_path / "trace.json"
    write_chrome_trace(str(path), tracer, sampler, name="count")
    doc = json.loads(path.read_text())
    assert doc["traceEvents"]
    assert doc["otherData"]["generator"] == "repro.obs"


def test_run_manifest_schema(count_program, tiny_config):
    result = simulate(count_program, tiny_config)
    manifest = run_manifest(
        result,
        workload={"name": "count", "variant": "base", "scale": 1.0, "seed": 1},
        run={"max_instructions": None},
    )
    assert manifest["manifest_version"] == MANIFEST_VERSION
    assert manifest["kind"] == "repro.run"
    assert manifest["program"] == "count"
    assert manifest["workload"]["name"] == "count"
    assert manifest["config"]["rob_size"] == tiny_config.rob_size
    metrics = manifest["metrics"]
    assert metrics["core.retired"] == result.stats.retired
    assert metrics["bq.pops"] == result.stats.bq_pops > 0
    assert manifest["derived"]["ipc"] == result.stats.ipc
    assert manifest["energy"]["total_nj"] == result.energy.total_nj
    # round-trips through JSON after jsonable()
    assert json.loads(json.dumps(jsonable(manifest)))


def test_manifest_for_cfd_workload_has_queue_metrics(tmp_path):
    built = get_workload("soplex").build("cfd", None, scale=0.125, seed=1)
    result = simulate(built.program, sandy_bridge_config(),
                      max_instructions=4000)
    path = tmp_path / "manifest.json"
    result.write_manifest(str(path), workload={"name": "soplex",
                                               "variant": "cfd"})
    manifest = json.loads(path.read_text())
    metrics = manifest["metrics"]
    for key in ("bq.pushes", "bq.pops", "bq.miss_rate", "tq.pushes",
                "vq.pushes", "branch.mispredicts", "checkpoint.taken",
                "memsys.l1d.misses", "memsys.l1d.mshr.allocations"):
        assert key in metrics, key
    assert metrics["bq.pops"] > 0
    assert "branch.mispredict_levels" in metrics
    assert manifest["stats"]["mispredict_levels"] is not None


def test_manifest_records_supervision_knobs(count_program, tiny_config,
                                            tmp_path):
    """Satellite: a run launched under supervision records the policy's
    knobs in its manifest, so an archived manifest is enough to rerun
    the point under identical retry/timeout behaviour."""
    from repro.rel import SupervisionPolicy

    policy = SupervisionPolicy(timeout=30.0, retries=2, backoff=0.5)
    path = tmp_path / "manifest.json"
    simulate(count_program, tiny_config, manifest_path=str(path),
             supervision=policy)
    manifest = json.loads(path.read_text())
    assert manifest["supervision"] == policy.to_dict()
    assert manifest["supervision"]["retries"] == 2
    # journal_path / resume are host-local runtime details, not knobs
    assert "journal_path" not in manifest["supervision"]

    # unsupervised runs say so explicitly
    bare = tmp_path / "bare.json"
    simulate(count_program, tiny_config, manifest_path=str(bare))
    assert json.loads(bare.read_text())["supervision"] is None
