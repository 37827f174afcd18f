"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench -q

The smoke tests run every workload once at ``--seconds 1`` (about two
minutes in all on a 2-core host).
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import cases  # noqa: E402
from perfbench.measure import (  # noqa: E402
    WalReader, ipc_error_pct, median_rate_kips, percentile,
)
from perfbench.tracing import Tracer  # noqa: E402


def test_percentile_needs_ten_samples_beyond():
    assert percentile(range(20), 0.5) == 9
    assert percentile(range(100), 0.9) == 89
    with pytest.raises(ValueError):
        percentile(range(19), 0.5)
    with pytest.raises(ValueError):
        percentile(range(99), 0.9)
    with pytest.raises(ValueError):
        percentile(range(1000), 1.0)


def test_median_rate_kips_outvotes_a_slowed_operation():
    # Two groups at 10 and 40 kIPS; one op of each ran at half speed.
    ops = [("a", 1000, 0.1), ("a", 1200, 0.12), ("a", 800, 0.16),
           ("b", 4000, 0.1), ("b", 4000, 0.2), ("b", 2000, 0.05)]
    # 3000 + 10000 instructions in 0.3 + 0.25 s at the medians.
    assert median_rate_kips(ops) == pytest.approx(13000 / 0.55 / 1000)
    # Every op twice as slow: half the throughput.
    slower = [(g, i, t * 2) for g, i, t in ops]
    assert median_rate_kips(slower) == pytest.approx(13000 / 1.1 / 1000)
    # A single group is its median rate; failed ops cover nothing.
    assert median_rate_kips([("s", 100, 1.0), ("s", 300, 1.0),
                             ("s", 200, 1.0), ("s", 0, 0.0)]) == 0.2
    assert median_rate_kips([("s", 0, 0.0)]) == 0.0


def test_spans_plus_residual_equal_traced_wall():
    tracer = Tracer()

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    inner = tracer.wrap("inner_s", busy)
    leaf = tracer.wrap("leaf_s", busy, leaf=True)

    def outer():
        busy(0.01)
        inner(0.02)
        leaf(0.01)

    outer = tracer.wrap("outer_s", outer)

    def failing():
        inner(0.01)
        raise KeyError("boom")

    failing = tracer.wrap("failing_s", failing)
    start = time.perf_counter()
    busy(0.01)
    outer()
    with pytest.raises(KeyError):
        failing()
    with tracer.span("block_s"):
        outer()
    busy(0.01)
    wall = time.perf_counter() - start

    split = tracer.split(wall)
    assert sum(split.values()) == pytest.approx(wall, abs=1e-9)
    assert split["trace.residual_s"] >= 0.02
    # Self time: outer's span excludes the inner and leaf spans it nests.
    assert 0.02 <= split["outer_s"] < 0.03
    assert split["inner_s"] >= 0.05
    assert tracer.calls("outer_s") == 2
    assert tracer.calls("inner_s") == 3


def test_patch_wraps_class_attribute_and_unpatch_restores():
    class Stage:
        def step(self):
            return 7

    original = Stage.__dict__["step"]
    tracer = Tracer()
    tracer.patch(Stage, "step", "step_s", leaf=True)
    bound = Stage().step  # a run loop binds the method once, up front
    assert bound() == 7 and tracer.calls("step_s") == 1
    tracer.unpatch()
    assert Stage.__dict__["step"] is original


def test_wal_reader_skips_torn_tail(tmp_path):
    wal = tmp_path / "wal.jsonl"
    records = [
        {"op": "submit", "job_id": "a", "ts": 1.0},
        {"op": "lease", "job_id": "a", "ts": 1.5},
    ]
    torn = json.dumps({"op": "done", "job_id": "a", "ts": 2.0}).encode()
    with open(wal, "wb") as fh:
        for doc in records:
            fh.write(json.dumps(doc).encode() + b"\n")
        fh.write(b"\xff\xfe not json\n")           # garbage line
        fh.write("{\"op\": \"xé".encode()[:-1] + b"\n")  # mid-UTF-8
        fh.write(torn[:-7])                         # torn: no newline
    reader = WalReader(str(wal))
    assert reader.poll() == 2
    assert reader.jobs["a"] == {"submit": 1.0, "lease": 1.5}
    assert reader.terminal("a") is None
    with open(wal, "ab") as fh:
        fh.write(torn[-7:] + b"\n")
    assert reader.poll() == 1
    assert reader.terminal("a")["ts"] == 2.0
    assert reader.size == os.path.getsize(wal)


def test_ipc_error_of_seed_one_pins_matches_banked_value():
    with open(os.path.join(ROOT, "perfbench", "pins.json")) as fh:
        pins = json.load(fh)["sampled-run"]
    pairs = [(pins[cases.pin_key(case.name, 1)]["ipc"],
              pins[cases.pin_key(case.name, 1)]["truth_ipc"])
             for case in cases.CASES]
    assert round(ipc_error_pct(pairs), 2) == 0.61


def test_schedule_covers_pool_and_depends_on_seed():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    for workload, pool in cases.POOLS.items():
        full = cases.pool_schedule(workload, 5, seconds)
        assert sorted(full) == sorted(pool)
        assert cases.pool_schedule(workload, 5, 1) == full[:1]
    assert (cases.pool_schedule("core-full", 1, seconds)
            != cases.pool_schedule("core-full", 2, seconds))
    specs = cases.serve_specs(3, 10) + cases.serve_specs(3, 5, offset=10)
    assert len({spec["seed"] for spec in specs}) == 15


def _run(workload, trace=0, root=ROOT):
    done = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        cwd=root, stdout=subprocess.PIPE, timeout=180,
    )
    return done.returncode, done.stdout.decode().splitlines()


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_smoke_run_has_no_failed_operations(workload):
    code, lines = _run(workload)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_adds_up():
    code, lines = _run("core-full", trace=1)
    assert code == 0
    record = json.loads(lines[-2])["record"]
    metrics = json.loads(lines[-1])["metrics"]
    assert record["split_sum_s"] == pytest.approx(record["wall_s"], abs=1e-6)
    assert metrics["core.fetch_s"]["value"] > 0
    assert metrics["trace.residual_s"]["value"] >= 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = _run("core-full", root=str(tmp_path))
    assert code != 0
    assert lines == []
