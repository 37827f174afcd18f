"""``bench-speed`` writes the ``"sampled"`` section of ``BENCH_speed.json``.

It replaces that section and keeps every other key of the artifact: the
banked ``"sweep"`` section and the banked top-level keys of older runs.
"""

import io
import json

import pytest

from repro.cli import main
from repro.perf import speed

SAMPLED = {"kind": "repro.bench_speed.sampled", "cases": {},
           "gates": {"ci_wide": False}, "gates_passed": True}
SWEEP = {"kind": "repro.bench_sweep", "gates": {}, "gates_passed": True}


# One case, kept parametrized so its test id does not change.
@pytest.mark.parametrize("argv,section,other", [
    (["bench-speed", "--cases", "bzip2_tq"], "sampled", "sweep"),
])
def test_bench_command_keeps_the_other_sections(tmp_path, monkeypatch,
                                                argv, section, other):
    monkeypatch.setattr(speed, "run_sampled_benchmark",
                        lambda cases=None, repeats=2, progress=None: SAMPLED)
    artifact = tmp_path / "BENCH_speed.json"
    artifact.write_text(json.dumps({"geomean_kips": 35.25, other: SWEEP}))

    code = main(argv + ["--json", "--artifact-dir", str(tmp_path)],
                io.StringIO())

    assert code == 0
    assert json.loads(artifact.read_text()) == {
        "geomean_kips": 35.25, section: SAMPLED, other: SWEEP,
    }
