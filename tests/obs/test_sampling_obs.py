"""Observability of sampled runs.

Sampled runs must be visible end to end: the run manifest carries the
sampling accounting, and sweep workers emit ``sampling`` telemetry
events the aggregator folds onto the point.
"""

import io
import json

from repro.cli import main
from repro.obs.telemetry import SweepAggregator
from repro.perf import SweepPoint
from repro.rel import run_supervised_sweep

_SAMPLE_SPEC = "interval=400,warmup=100,period=2000,head=500,tail=500"


def _sampled_point():
    return SweepPoint(workload="bzip2", variant="tq", input_name="chicken",
                      scale=0.25, max_instructions=20_000,
                      sampling=_SAMPLE_SPEC)


# ----------------------------------------------------------- run manifest


def test_manifest_carries_sampling_section():
    [outcome] = run_supervised_sweep([_sampled_point()], jobs=1)
    assert outcome.ok
    manifest = outcome.result.manifest()
    assert manifest["sampling"]["intervals"] >= 1
    assert manifest["sampling"]["fingerprint"].startswith("sample/v")
    assert manifest["run"]["sampling"] == _SAMPLE_SPEC


def test_manifest_sampling_none_for_full_detail():
    point = _sampled_point()
    point.sampling = None
    [outcome] = run_supervised_sweep([point], jobs=1)
    assert outcome.result.manifest()["sampling"] is None


def test_cli_run_sample_json_manifest():
    out = io.StringIO()
    code = main([
        "run", "bzip2", "--variant", "tq", "--input", "chicken",
        "--scale", "0.25", "--max-instructions", "20000",
        "--sample=%s" % _SAMPLE_SPEC, "--no-cache", "--json",
    ], out)
    assert code == 0
    manifest = json.loads(out.getvalue())
    assert manifest["sampling"]["intervals"] >= 1
    assert 0.0 < manifest["sampling"]["measured_fraction"] < 1.0


# -------------------------------------------------------------- telemetry


def test_sampled_sweep_emits_sampling_event(tmp_path):
    outcomes = run_supervised_sweep([_sampled_point()], jobs=2,
                                    telemetry=str(tmp_path))
    assert all(o.ok for o in outcomes)
    agg = SweepAggregator(str(tmp_path))
    events = agg.poll()
    sampling = [e for e in events if e["kind"] == "sampling"]
    assert len(sampling) == 1
    assert sampling[0]["intervals"] >= 1
    assert agg.counters["sampled_points"] == 1
    snap = agg.snapshot()
    [point_row] = snap["points"]
    assert point_row["sampling"]["fingerprint"].startswith("sample/v")

