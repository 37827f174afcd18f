"""Machine-readable CLI output: run/compare/profile/classify --json, trace."""

import io
import json
import os

from repro.cli import main
from repro.core import sandy_bridge_config, simulate
from repro.obs.export import MANIFEST_VERSION
from repro.workloads import get_workload


def _run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_run_json_emits_versioned_manifest():
    code, text = _run("run", "soplex", "--variant", "cfd", "--scale", "0.125",
                      "--max-instructions", "4000", "--json")
    assert code == 0
    manifest = json.loads(text)
    assert manifest["manifest_version"] == MANIFEST_VERSION
    assert manifest["kind"] == "repro.run"
    assert manifest["workload"] == {"name": "soplex", "variant": "cfd",
                                    "input": None, "scale": 0.125, "seed": 1}
    assert manifest["run"]["max_instructions"] == 4000
    assert manifest["config"]["name"] == "sandy-bridge-like"
    assert manifest["metrics"]["bq.pops"] > 0
    assert "tq.pushes" in manifest["metrics"]
    assert "vq.pushes" in manifest["metrics"]
    assert "branch.mispredict_levels" in manifest["metrics"]


def test_run_json_matches_direct_simulation():
    code, text = _run("run", "soplex", "--variant", "cfd", "--scale", "0.125",
                      "--max-instructions", "4000", "--json")
    assert code == 0
    manifest = json.loads(text)
    built = get_workload("soplex").build("cfd", None, scale=0.125, seed=1)
    result = simulate(built.program, sandy_bridge_config(),
                      max_instructions=4000)
    assert manifest["derived"]["ipc"] == result.stats.ipc
    assert manifest["metrics"]["core.retired"] == result.stats.retired
    assert manifest["metrics"]["branch.mispredicts"] == result.stats.mispredicts


def test_metrics_export_of_a_run_manifest(tmp_path):
    code, text = _run("run", "soplex", "--variant", "cfd", "--scale", "0.125",
                      "--max-instructions", "4000", "--json", "--no-cache")
    assert code == 0
    manifest = json.loads(text)
    path = tmp_path / "manifest.json"
    path.write_text(text)
    code, prom = _run("metrics-export", str(path))
    assert code == 0
    samples = dict(line.rsplit(" ", 1) for line in prom.splitlines()
                   if not line.startswith("#"))
    assert int(samples["repro_core_cycles"]) == manifest["metrics"]["core.cycles"]
    occupancy = "repro_memsys_l1d_mshr_occupancy"
    count = int(samples[occupancy + "_count"])
    assert count == manifest["metrics"]["core.cycles"] > 0
    assert int(samples[occupancy + '_bucket{le="+Inf"}']) == count


def test_compare_json():
    code, text = _run("compare", "jpeg_compr", "--variant", "cfd",
                      "--scale", "0.125", "--json")
    assert code == 0
    doc = json.loads(text)
    assert doc["kind"] == "repro.compare"
    assert doc["comparison"]["speedup"] > 0
    assert doc["base"]["retired"] > 0
    assert doc["variant"]["retired"] > 0


def test_profile_json():
    code, text = _run("profile", "soplex", "--scale", "0.125",
                      "--max-instructions", "20000", "--top", "3", "--json")
    assert code == 0
    doc = json.loads(text)
    assert doc["kind"] == "repro.profile"
    assert doc["total_instructions"] > 0
    assert len(doc["top_branches"]) <= 3
    assert any(b["separable"] for b in doc["top_branches"])


def test_classify_json():
    code, text = _run("classify", "--scale", "0.125",
                      "--max-instructions", "15000", "--json")
    assert code == 0
    doc = json.loads(text)
    assert doc["kind"] == "repro.classify"
    assert doc["rows"]
    assert 0 <= doc["separable_share"] <= 1
    assert doc["class_shares"]


def test_trace_writes_chrome_trace(tmp_path):
    path = tmp_path / "trace.json"
    code, text = _run("trace", "soplex", "--variant", "cfd",
                      "--scale", "0.125", "--max-instructions", "2000",
                      "--cycles", "4000", "--output", str(path))
    assert code == 0
    assert "traced" in text
    doc = json.loads(path.read_text())
    assert doc["traceEvents"]
    phases = {e["ph"] for e in doc["traceEvents"]}
    assert "X" in phases and "C" in phases
    assert doc["otherData"]["generator"] == "repro.obs"


def test_trace_jsonl_and_render(tmp_path):
    path = tmp_path / "events.jsonl"
    code, text = _run("trace", "soplex", "--scale", "0.125",
                      "--max-instructions", "1000", "--cycles", "2000",
                      "--format", "jsonl", "--output", str(path),
                      "--render", "--render-count", "10")
    assert code == 0
    assert "fetchPC" in text  # rendered timeline
    lines = path.read_text().strip().splitlines()
    assert lines
    assert json.loads(lines[0])["kind"]


def test_trace_default_output_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, text = _run("trace", "soplex", "--scale", "0.125",
                      "--max-instructions", "500", "--cycles", "1500")
    assert code == 0
    written = [f for f in os.listdir(".") if f.startswith("trace_")]
    assert len(written) == 1
    assert written[0].endswith(".json")
