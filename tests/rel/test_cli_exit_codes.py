"""The CLI exit-code contract, exercised through real subprocesses.

Supervision tooling (CI, sweep drivers) must be able to classify a
failed invocation from the exit code alone: 2 usage, 3 simulation
error, 4 invariant violation, 5 lint findings, 6 a failed benchmark
gate — each with a clean one-line stderr message, never a raw
traceback.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _python(argv, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, cwd=str(ROOT), env=env, timeout=120,
    )


def _repro(args, tmp_path):
    return _python(["-m", "repro", *args], tmp_path)


def test_success_exits_zero(tmp_path):
    proc = _repro(["list"], tmp_path)
    assert proc.returncode == 0
    assert "astar_r1" in proc.stdout


def test_usage_error_exits_two(tmp_path):
    proc = _repro(["frobnicate"], tmp_path)
    assert proc.returncode == 2


def test_simulation_error_exits_three(tmp_path):
    proc = _repro(["run", "no-such-workload"], tmp_path)
    assert proc.returncode == 3
    assert proc.stderr.startswith("repro: error:")
    assert "no-such-workload" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_invariant_violation_exits_four(tmp_path):
    proc = _repro(
        ["run", "astar_r1", "--deadlock-cycles", "1", "--scale", "0.0625",
         "--max-instructions", "2000", "--no-cache"],
        tmp_path,
    )
    assert proc.returncode == 4
    assert proc.stderr.startswith("repro: invariant violation:")
    assert "deadlock" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1  # one-line, greppable


def test_run_check_flag_passes_on_healthy_workload(tmp_path):
    proc = _repro(
        ["run", "astar_r1", "--check", "--scale", "0.0625",
         "--max-instructions", "2000"],
        tmp_path,
    )
    assert proc.returncode == 0
    assert "retired" in proc.stdout


def test_lint_clean_workload_exits_zero(tmp_path):
    proc = _repro(["lint", "soplex", "--variant", "cfd"], tmp_path)
    assert proc.returncode == 0
    assert "0 findings" in proc.stdout


def test_lint_findings_exit_five(tmp_path):
    # Register a synthetic broken workload in-process, then drive the
    # real CLI entry point against it; exit code 5 means "lint findings"
    # (as opposed to 3, which a strict build gate would produce).
    script = (
        "import sys\n"
        "from repro import cli\n"
        "from repro.workloads import suite\n"
        "def builder(variant, input_name, scale, seed):\n"
        "    return '.text\\n  b_bq done\\ndone:\\n  halt\\n', {}, {}\n"
        "suite._ensure_loaded()\n"
        "suite.register(suite.Workload(\n"
        "    name='broken_bq', suite='synthetic', description='x',\n"
        "    paper_region='x', branch_class='easy', variants=('base',),\n"
        "    inputs=('t',), time_fraction=0.0, builder=builder))\n"
        "sys.exit(cli.main(['lint', 'broken_bq']))\n"
    )
    proc = _python(["-c", script], tmp_path)
    assert proc.returncode == 5, proc.stderr
    assert "BQ001" in proc.stdout
    assert "Traceback" not in proc.stderr


def test_perf_regression_exits_six(tmp_path):
    # Swap in a sampled benchmark whose gates fail, then drive the real
    # CLI entry point: exit code 6 means a benchmark gate failed.
    script = (
        "import sys\n"
        "from repro import cli\n"
        "from repro.perf import speed\n"
        "def failing(cases=None, repeats=2, progress=None):\n"
        "    return {'kind': 'repro.bench_speed.sampled', 'cases': {},\n"
        "            'gates': {'kips_ok': False, 'error_ok': True,\n"
        "                      'ci_wide': False},\n"
        "            'gates_passed': False}\n"
        "speed.run_sampled_benchmark = failing\n"
        "sys.exit(cli.main(['bench-speed', '--cases', 'bzip2_tq', '--json',\n"
        "                   '--artifact-dir', sys.argv[1]]))\n"
    )
    proc = _python(["-c", script, str(tmp_path)], tmp_path)
    assert proc.returncode == 6, proc.stderr
    assert proc.stderr.strip() == (
        "repro: bench-speed: sampled gates failed (exit 6)")
    assert "Traceback" not in proc.stderr
