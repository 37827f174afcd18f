"""``BENCH_speed.json`` holds one section per bench command.

``bench-speed`` writes ``"sampled"`` and ``bench-sweep`` writes
``"sweep"``; each replaces its own section and keeps every other key of
the artifact, including the banked top-level keys of older runs.
"""

import io
import json

import pytest

from repro.cli import main
from repro.perf import speed, sweepbench

SAMPLED = {"kind": "repro.bench_speed.sampled", "cases": {},
           "gates": {"ci_wide": False}, "gates_passed": True}
SWEEP = {"kind": "repro.bench_sweep", "gates": {}, "gates_passed": True}


@pytest.mark.parametrize("argv,section,other", [
    (["bench-speed", "--cases", "bzip2_tq"], "sampled", "sweep"),
    (["bench-sweep"], "sweep", "sampled"),
])
def test_bench_command_keeps_the_other_sections(tmp_path, monkeypatch,
                                                argv, section, other):
    monkeypatch.setattr(speed, "run_sampled_benchmark",
                        lambda cases=None, repeats=2, progress=None: SAMPLED)
    monkeypatch.setattr(sweepbench, "run_sweep_benchmark",
                        lambda trace_dir, **kwargs: dict(SWEEP))
    sections = {"sampled": SAMPLED, "sweep": SWEEP}
    artifact = tmp_path / "BENCH_speed.json"
    artifact.write_text(json.dumps({"geomean_kips": 35.25,
                                    other: sections[other]}))

    code = main(argv + ["--json", "--artifact-dir", str(tmp_path)],
                io.StringIO())

    assert code == 0
    assert json.loads(artifact.read_text()) == {
        "geomean_kips": 35.25, "sampled": SAMPLED, "sweep": SWEEP,
    }
