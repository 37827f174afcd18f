"""Observability of sampled runs.

Sampled runs must be visible end to end: the run manifest carries the
sampling accounting, sweep workers emit ``sampling`` telemetry events
the aggregator folds onto the point, and the bench-history label
selector can pin a named baseline.
"""

import io
import json

from repro.cli import main
from repro.obs.history import append_history, history_entry, load_measurement
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


# ------------------------------------------------- history label selector


def _payload(geomean, label_kips):
    return {
        "geomean_kips": geomean,
        "python": "3.11",
        "repeats": 2,
        "cases": {"a": {"kips": label_kips, "seconds": 0.1,
                        "retired": 4000, "max_instructions": 4000}},
    }


def test_load_measurement_by_label(tmp_path):
    path = str(tmp_path / "BENCH_history.jsonl")
    append_history(path, history_entry(_payload(40.0, 40.0), label="v1"))
    append_history(path, history_entry(_payload(41.0, 41.0), label="v1"))
    append_history(path, history_entry(_payload(50.0, 50.0), label="v2"))
    pinned = load_measurement(path, label="v1")
    assert pinned["geomean_kips"] == 41.0  # newest among the v1 entries
    assert load_measurement(path, select="best", label="v1")[
        "geomean_kips"] == 41.0
    assert load_measurement(path)["geomean_kips"] == 50.0  # unpinned


def test_load_measurement_missing_label_errors(tmp_path):
    import pytest

    path = str(tmp_path / "BENCH_history.jsonl")
    append_history(path, history_entry(_payload(40.0, 40.0), label="v1"))
    with pytest.raises(ValueError, match="labelled 'v9'"):
        load_measurement(path, label="v9")


def test_cli_bench_diff_baseline_label(tmp_path):
    path = str(tmp_path / "BENCH_history.jsonl")
    # Old pinned release is slow; the tip is fast.  Against the tip the
    # diff regresses; pinned to the release label it passes.
    append_history(path, history_entry(_payload(30.0, 30.0), label="rel"))
    append_history(path, history_entry(_payload(60.0, 60.0), label="tip"))
    current = str(tmp_path / "BENCH_speed.json")
    with open(current, "w") as fh:
        json.dump({
            "kind": "repro.bench_speed",
            "geomean_kips": 31.0,
            "cases": {"a": {"kips": 31.0}},
        }, fh)
    assert main(["bench-diff", current, path], io.StringIO()) != 0
    assert main(["bench-diff", current, path,
                 "--baseline-label", "rel"], io.StringIO()) == 0
