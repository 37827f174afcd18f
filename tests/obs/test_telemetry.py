"""Fleet telemetry: spools, the aggregator, and the sweep integration.

The telemetry layer is an observer, never a participant: sweeps must
produce byte-identical statistics with it on or off, a torn spool line
must never confuse a reader, and the whole path must disappear behind a
single ``is None`` test when no spool directory is configured.
"""

import io
import json

from repro.cli import main
from repro.obs.resource import ResourceSample
from repro.obs.telemetry import (
    TELEMETRY_VERSION,
    SweepAggregator,
    SweepTelemetry,
    TelemetrySpool,
    format_tail_event,
    format_top,
)
from repro.perf import SweepPoint
from repro.rel import SupervisionPolicy, run_supervised_sweep


def _points(n=2):
    all_points = [
        SweepPoint(workload="astar_r1", variant="base", input_name="Rivers",
                   scale=0.125, max_instructions=2000),
        SweepPoint(workload="soplex", variant="cfd", input_name="ref",
                   scale=0.125, max_instructions=2000),
    ]
    return all_points[:n]


def _stats_blobs(outcomes):
    return [
        json.dumps(o.result.stats.to_dict(), sort_keys=True)
        for o in outcomes
    ]


def _events(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ------------------------------------------------------------------ spool


def test_spool_writes_versioned_stamped_lines(tmp_path):
    spool = TelemetrySpool(str(tmp_path), role="sweep", pid=42)
    spool.emit("sweep_start", total=3)
    spool.emit("sweep_finish", ok=3)
    spool.close()
    events = _events(tmp_path / "sweep-42.jsonl")
    assert [e["kind"] for e in events] == ["sweep_start", "sweep_finish"]
    assert all(e["v"] == TELEMETRY_VERSION for e in events)
    assert all(e["pid"] == 42 and e["role"] == "sweep" for e in events)
    assert events[0]["ts"] <= events[1]["ts"]


def test_spool_emit_failure_disables_not_raises(tmp_path):
    target = tmp_path / "not-a-dir"
    target.write_text("a file where the spool dir should be")
    spool = TelemetrySpool(str(target), role="worker")
    assert spool.emit("point_start", point="x") is None
    assert spool.emit("point_finish", point="x") is None  # stays disabled


# ------------------------------------------------------------- aggregator


def test_aggregator_ignores_torn_tail_until_complete(tmp_path):
    path = tmp_path / "worker-1.jsonl"
    whole = json.dumps({"v": TELEMETRY_VERSION, "kind": "point_start",
                        "ts": 1.0, "pid": 1, "role": "worker",
                        "point": "p", "key": "k"})
    partial = json.dumps({"v": TELEMETRY_VERSION, "kind": "point_finish",
                          "ts": 2.0, "pid": 1, "role": "worker",
                          "point": "p", "key": "k", "ok": True})
    path.write_text(whole + "\n" + partial[: len(partial) // 2])
    agg = SweepAggregator(str(tmp_path))
    first = agg.poll()
    assert [e["kind"] for e in first] == ["point_start"]
    # The writer finishes the line: the event is consumed exactly once.
    path.write_text(whole + "\n" + partial + "\n")
    second = agg.poll()
    assert [e["kind"] for e in second] == ["point_finish"]
    assert agg.points["k"].status == "finished"


def test_aggregator_skips_foreign_versions_and_junk(tmp_path):
    lines = [
        "not json at all",
        json.dumps({"no": "kind"}),
        json.dumps({"v": TELEMETRY_VERSION + 1, "kind": "point_start",
                    "ts": 1.0, "point": "p"}),
        json.dumps({"v": TELEMETRY_VERSION, "kind": "cache_hit",
                    "ts": 2.0, "role": "sweep", "pid": 9, "point": "p"}),
    ]
    (tmp_path / "sweep-9.jsonl").write_text("\n".join(lines) + "\n")
    agg = SweepAggregator(str(tmp_path))
    events = agg.poll()
    assert [e["kind"] for e in events] == ["cache_hit"]
    assert agg.counters["cache_hits"] == 1
    assert agg.points["p"].cached


def test_aggregator_keeps_legacy_batch_events_unfolded(tmp_path):
    # Older sweeps spooled a ``batch`` event for the lockstep batched
    # executor, which no longer exists.  Unknown kinds are kept but
    # ignored by folding: only the event count moves.
    spool = TelemetrySpool(str(tmp_path), role="sweep", pid=5)
    spool.emit("batch", width=2, points=2)
    spool.close()
    agg = SweepAggregator(str(tmp_path))
    before = dict(agg.counters)
    events = agg.poll()
    assert [e["kind"] for e in events] == ["batch"]
    assert agg.counters == dict(before, events=1)
    snap = agg.snapshot()
    assert "batches" not in snap["counters"]
    assert "batch_width" not in snap["totals"]


def test_aggregator_folds_a_full_point_lifecycle(tmp_path):
    spool = TelemetrySpool(str(tmp_path), role="sweep", pid=7)
    spool.emit("sweep_start", total=1, jobs=2, label="t")
    worker = TelemetrySpool(str(tmp_path), role="worker", pid=8)
    worker.emit("point_start", point="p", key="k")
    worker.emit("progress", point="p", key="k", retired=500, cycles=900,
                kips=12.5)
    worker.emit("point_finish", point="p", key="k", ok=True, retired=1000,
                cycles=1800, seconds=0.5, kips=2.0,
                resources={"maxrss_kb": 1234, "cpu_seconds": 0.4})
    spool.emit("point_settled", point="p", key="k", ok=True, seconds=0.5,
               attempts=1, retired=1000)
    spool.emit("sweep_finish", ok=1, total=1)
    agg = SweepAggregator(str(tmp_path))
    agg.poll()
    snap = agg.snapshot()
    assert agg.finished
    assert snap["totals"]["settled"] == 1
    assert snap["totals"]["retired"] == 1000
    assert snap["totals"]["peak_rss_kb"] == 1234
    assert snap["counters"]["workers"] == 1
    (state,) = snap["points"]
    assert state["status"] == "done"
    assert state["attempts"] == 1
    assert state["kips"] == 2.0


def test_points_total_never_below_settled_across_sweeps(tmp_path):
    """One fold over several sweeps (a daemon's spool), where the last
    sweep_start announced fewer points than were settled overall."""
    from repro.obs.prom import render_sweep

    spool = TelemetrySpool(str(tmp_path), role="sweep", pid=7)
    for sweep in range(3):
        spool.emit("sweep_start", total=2, jobs=2, label="round")
        for index in range(2):
            key = "k%d-%d" % (sweep, index)
            spool.emit("point_settled", point=key, key=key, ok=True,
                       seconds=0.1, attempts=1, retired=10)
        spool.emit("sweep_finish", ok=2, total=2)
    agg = SweepAggregator(str(tmp_path))
    agg.poll()
    snap = agg.snapshot()
    assert snap["totals"]["settled"] == 6
    assert snap["totals"]["expected"] == 6
    text = render_sweep(snap)
    assert "repro_sweep_points_total 6" in text
    assert "repro_sweep_points_settled 6" in text


# ------------------------------------------------------- sweep integration


def test_run_sweep_stats_identical_with_telemetry_on_and_off(tmp_path):
    off = run_supervised_sweep(_points(), jobs=1)
    on = run_supervised_sweep(_points(), jobs=1, telemetry=str(tmp_path))
    assert _stats_blobs(off) == _stats_blobs(on)
    # Telemetry-on additionally records worker resource usage.
    assert all(o.resources is None for o in off)
    assert all(o.resources and o.resources["wall_seconds"] > 0 for o in on)


def test_run_sweep_spools_the_expected_events(tmp_path):
    outcomes = run_supervised_sweep(_points(), jobs=2, telemetry=str(tmp_path))
    assert all(o.ok for o in outcomes)
    agg = SweepAggregator(str(tmp_path))
    kinds = {e["kind"] for e in agg.poll()}
    assert {"sweep_start", "point_start", "point_finish",
            "point_settled", "sweep_finish"} <= kinds
    snap = agg.snapshot()
    assert snap["totals"]["settled"] == 2
    assert snap["totals"]["by_status"] == {"done": 2}
    assert snap["totals"]["retired"] == sum(
        o.result.stats.retired for o in outcomes
    )
    # The parent refreshed the Prometheus snapshot as points settled.
    prom = (tmp_path / "metrics.prom").read_text()
    assert "repro_sweep_points_settled 2" in prom


def test_supervised_sweep_emits_and_stays_identical(tmp_path):
    spool = tmp_path / "spool"
    journal = tmp_path / "journal.jsonl"
    off = run_supervised_sweep(_points(), jobs=1)
    on = run_supervised_sweep(
        _points(), jobs=2,
        policy=SupervisionPolicy(journal_path=str(journal)),
        telemetry=str(spool),
    )
    assert _stats_blobs(off) == _stats_blobs(on)
    agg = SweepAggregator(str(spool))
    agg.poll()
    assert agg.sweep["label"] == "run_supervised_sweep"
    assert agg.sweep["policy"]["journal"] == str(journal)
    # Resume replays through telemetry as journal_resume, not re-runs.
    resumed = run_supervised_sweep(
        _points(), jobs=1,
        policy=SupervisionPolicy(journal_path=str(journal), resume=True),
        telemetry=str(spool),
    )
    assert all(o.resumed for o in resumed)
    agg2 = SweepAggregator(str(spool))
    agg2.poll()
    assert agg2.counters["journal_resumes"] == 2


def test_cache_hits_are_visible(tmp_path):
    from repro.perf import ResultCache

    cache = ResultCache(root=str(tmp_path / "cache"))
    run_supervised_sweep(_points(), jobs=1, cache=cache)
    spool = tmp_path / "spool"
    outcomes = run_supervised_sweep(_points(), jobs=1, cache=cache,
                                    telemetry=str(spool))
    assert all(o.cached for o in outcomes)
    agg = SweepAggregator(str(spool))
    agg.poll()
    assert agg.counters["cache_hits"] == 2
    assert agg.snapshot()["totals"]["by_status"] == {"cached": 2}


def test_resolve_disabled_without_env(monkeypatch):
    monkeypatch.delenv("REPRO_TELEMETRY_DIR", raising=False)
    assert SweepTelemetry.resolve(None) is None


def test_resolve_enabled_by_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path))
    session = SweepTelemetry.resolve(None)
    assert session is not None and session.directory == str(tmp_path)
    # An explicit session passes through untouched.
    assert SweepTelemetry.resolve(session) is session


# ------------------------------------------------------------- resources


def test_resource_delta_shape():
    start = ResourceSample.capture()
    sum(i * i for i in range(50_000))
    delta = start.delta(ResourceSample.capture())
    assert set(delta) == {"wall_seconds", "cpu_user_seconds",
                          "cpu_system_seconds", "cpu_seconds", "maxrss_kb"}
    assert delta["wall_seconds"] > 0
    assert delta["maxrss_kb"] >= 0


# ------------------------------------------------------------- rendering


def test_format_top_and_tail_render(tmp_path):
    run_supervised_sweep(_points(), jobs=1, telemetry=str(tmp_path))
    agg = SweepAggregator(str(tmp_path))
    events = agg.poll()
    screen = format_top(agg.snapshot())
    assert "repro top" in screen and "[finished]" in screen
    assert "2/2 settled" in screen
    assert "soplex(ref)/cfd" in screen
    lines = [format_tail_event(e) for e in events]
    assert any("sweep_start" in line for line in lines)
    assert any("point_finish" in line for line in lines)


def test_format_top_caps_point_rows(tmp_path):
    spool = TelemetrySpool(str(tmp_path), role="sweep", pid=1)
    spool.emit("sweep_start", total=10, jobs=1, label="big")
    for i in range(10):
        spool.emit("point_settled", point="p%d" % i, key="k%d" % i,
                   ok=True, seconds=0.1, attempts=1, retired=10)
    agg = SweepAggregator(str(tmp_path))
    agg.poll()
    screen = format_top(agg.snapshot(), max_points=3)
    assert len([line for line in screen.splitlines()
                if line.startswith(" ")]) == 3


# ------------------------------------------------------------ CLI surface


def test_cli_top_tail_and_metrics_export(tmp_path):
    spool = tmp_path / "spool"
    run_supervised_sweep(_points(), jobs=1, telemetry=str(spool))

    out = io.StringIO()
    assert main(["top", str(spool)], out) == 0
    assert "2/2 settled" in out.getvalue()

    out = io.StringIO()
    assert main(["top", str(spool), "--json"], out) == 0
    snap = json.loads(out.getvalue())
    assert snap["kind"] == "repro.telemetry"
    assert snap["totals"]["settled"] == 2

    out = io.StringIO()
    assert main(["tail", str(spool)], out) == 0
    assert "sweep_finish" in out.getvalue()

    out = io.StringIO()
    assert main(["tail", str(spool), "--json"], out) == 0
    kinds = [json.loads(line)["kind"]
             for line in out.getvalue().splitlines()]
    assert kinds[0] == "sweep_start" and kinds[-1] == "sweep_finish"

    out = io.StringIO()
    assert main(["metrics-export", str(spool)], out) == 0
    assert "repro_sweep_points_settled 2" in out.getvalue()

    target = tmp_path / "out.prom"
    out = io.StringIO()
    assert main(["metrics-export", str(spool), "-o", str(target)], out) == 0
    assert "repro_sweep_kips" in target.read_text()


def test_cli_follow_modes_terminate_on_finished_sweep(tmp_path):
    spool = tmp_path / "spool"
    run_supervised_sweep(_points(1), jobs=1, telemetry=str(spool))
    # The sweep_finish event is already spooled, so --follow exits after
    # the first poll instead of looping forever.
    out = io.StringIO()
    assert main(["top", str(spool), "--follow", "--interval", "0.01"],
                out) == 0
    out = io.StringIO()
    assert main(["tail", str(spool), "--follow", "--interval", "0.01"],
                out) == 0


def test_cli_metrics_export_rejects_junk(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["metrics-export", str(bad)], io.StringIO()) == 2
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    assert main(["metrics-export", str(empty)], io.StringIO()) == 2


def test_cli_compare_telemetry_flag(tmp_path):
    spool = tmp_path / "spool"
    out = io.StringIO()
    rc = main(["compare", "soplex", "--variant", "cfd", "--jobs", "2",
               "--scale", "0.125", "--max-instructions", "2000",
               "--no-cache", "--telemetry", str(spool)], out)
    assert rc == 0
    agg = SweepAggregator(str(spool))
    agg.poll()
    assert agg.snapshot()["totals"]["by_status"] == {"done": 2}
