"""Bench-history database and the bench-diff regression gate.

The exit-code contract this pins: a 20% single-case slowdown and a
geomean-only erosion must both flag (CLI exit 6, the documented
``EXIT_PERF_REGRESSION``), while within-threshold jitter passes, and a
renamed case is reported but never gated.
"""

import io
import json

from repro.cli import EXIT_PERF_REGRESSION, main
from repro.obs.history import (
    HISTORY_VERSION,
    append_history,
    bench_diff,
    history_entry,
    load_history,
    load_measurement,
)


def _payload(geomean, **kips):
    return {
        "geomean_kips": geomean,
        "python": "3.11",
        "repeats": 2,
        "cases": {name: {"kips": value, "seconds": 0.1, "retired": 4000,
                         "max_instructions": 4000}
                  for name, value in kips.items()},
    }


def _measurement(geomean, **kips):
    return {"source": "test", "label": None, "geomean_kips": geomean,
            "cases": dict(kips)}


# ---------------------------------------------------------------- history


def test_history_append_and_load(tmp_path):
    path = str(tmp_path / "BENCH_history.jsonl")
    append_history(path, history_entry(_payload(40.0, a=50.0), label="one"))
    append_history(path, history_entry(_payload(42.0, a=52.0), label="two"))
    entries = load_history(path)
    assert [e["label"] for e in entries] == ["one", "two"]
    assert all(e["version"] == HISTORY_VERSION for e in entries)
    assert entries[0]["cases"]["a"]["kips"] == 50.0
    assert entries[0]["recorded"] > 0


def test_history_loader_is_tolerant(tmp_path):
    path = tmp_path / "h.jsonl"
    good = json.dumps(history_entry(_payload(40.0, a=50.0), label="ok"))
    foreign = json.dumps({"kind": "repro.bench_history",
                          "version": HISTORY_VERSION + 1,
                          "geomean_kips": 1.0, "cases": {}})
    path.write_text("junk\n" + foreign + "\n" + good + "\n" + good[:20])
    entries = load_history(str(path))
    assert [e["label"] for e in entries] == ["ok"]
    assert load_history(str(tmp_path / "missing.jsonl")) == []


def test_history_append_after_torn_tail_keeps_the_entry(tmp_path):
    from repro.rel.inject import truncate_wal_tail

    path = str(tmp_path / "BENCH_history.jsonl")
    append_history(path, history_entry(_payload(40.0, a=50.0), label="one"))
    append_history(path, history_entry(_payload(41.0, a=51.0), label="torn"))
    truncate_wal_tail(path, mode="mid-record")
    append_history(path, history_entry(_payload(42.0, a=52.0), label="two"))
    assert [e["label"] for e in load_history(path)] == ["one", "two"]


def test_load_measurement_sniffs_both_artifact_kinds(tmp_path):
    speed = tmp_path / "BENCH_speed.json"
    speed.write_text(json.dumps({
        "kind": "repro.bench_speed",
        "geomean_kips": 39.0,
        "cases": {"a": {"kips": 50.0}},
        "baseline": {"label": "seed"},
    }))
    m = load_measurement(str(speed))
    assert m["geomean_kips"] == 39.0 and m["cases"] == {"a": 50.0}

    history = tmp_path / "h.jsonl"
    append_history(str(history), history_entry(_payload(30.0, a=30.0)))
    append_history(str(history), history_entry(_payload(45.0, a=45.0)))
    append_history(str(history), history_entry(_payload(40.0, a=40.0)))
    assert load_measurement(str(history), select="first")["geomean_kips"] == 30.0
    assert load_measurement(str(history), select="last")["geomean_kips"] == 40.0
    assert load_measurement(str(history), select="best")["geomean_kips"] == 45.0


def test_load_measurement_errors_name_the_problem(tmp_path):
    import pytest

    missing = tmp_path / "nope.json"
    with pytest.raises(ValueError, match="cannot read"):
        load_measurement(str(missing))
    alien = tmp_path / "alien.json"
    alien.write_text(json.dumps({"kind": "something.else"}))
    with pytest.raises(ValueError, match="unsupported artifact kind"):
        load_measurement(str(alien))
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")
    with pytest.raises(ValueError, match="no usable"):
        load_measurement(str(empty))
    history = tmp_path / "h.jsonl"
    append_history(str(history), history_entry(_payload(30.0, a=30.0)))
    append_history(str(history), history_entry(_payload(31.0, a=31.0)))
    with pytest.raises(ValueError, match="selector"):
        load_measurement(str(history), select="median")


# --------------------------------------------------------------- diffing


def test_twenty_percent_case_slowdown_is_flagged():
    report = bench_diff(
        _measurement(38.0, a=40.0, b=32.0),
        _measurement(40.0, a=50.0, b=32.0),
    )
    assert not report["ok"]
    assert report["cases"]["a"]["regressed"]
    assert not report["cases"]["b"]["regressed"]
    assert not report["geomean"]["regressed"]
    assert any("case a" in r for r in report["regressions"])


def test_geomean_only_erosion_is_flagged():
    # Every case sags ~10% — under the 15% per-case tolerance, but the
    # geomean drop exceeds its 5% tolerance.
    report = bench_diff(
        _measurement(36.0, a=45.0, b=28.8),
        _measurement(40.0, a=50.0, b=32.0),
    )
    assert not report["ok"]
    assert not any(row["regressed"] for row in report["cases"].values())
    assert report["geomean"]["regressed"]


def test_within_threshold_jitter_passes():
    report = bench_diff(
        _measurement(39.0, a=48.0, b=31.0),
        _measurement(40.0, a=50.0, b=32.0),
    )
    assert report["ok"] and report["regressions"] == []


def test_added_and_removed_cases_reported_not_gated():
    report = bench_diff(
        _measurement(40.0, a=50.0, c=10.0),
        _measurement(40.0, a=50.0, b=32.0),
    )
    assert report["ok"]
    assert report["added_cases"] == ["c"]
    assert report["removed_cases"] == ["b"]


def test_speedups_always_pass():
    report = bench_diff(
        _measurement(80.0, a=100.0, b=64.0),
        _measurement(40.0, a=50.0, b=32.0),
    )
    assert report["ok"]
    assert report["geomean"]["ratio"] == 2.0


# ------------------------------------------------------------ CLI contract


def _write_history(tmp_path, *payloads):
    path = str(tmp_path / "BENCH_history.jsonl")
    for index, payload in enumerate(payloads):
        append_history(path, history_entry(payload, label="e%d" % index))
    return path


def test_cli_bench_diff_pass_exits_zero(tmp_path):
    path = _write_history(tmp_path, _payload(40.0, a=50.0, b=32.0),
                          _payload(39.5, a=49.0, b=31.8))
    out = io.StringIO()
    rc = main(["bench-diff", path, path,
               "--select", "last", "--baseline-select", "first"], out)
    assert rc == 0
    assert "PASS" in out.getvalue()


def test_cli_bench_diff_regression_exits_six(tmp_path):
    # A synthetically slowed entry appended to the history must trip the
    # documented EXIT_PERF_REGRESSION code.
    path = _write_history(tmp_path, _payload(40.0, a=50.0, b=32.0),
                          _payload(33.0, a=38.0, b=29.0))
    out = io.StringIO()
    rc = main(["bench-diff", path, path, "--select", "last",
               "--baseline-select", "first", "--json"], out)
    assert rc == EXIT_PERF_REGRESSION == 6
    report = json.loads(out.getvalue())
    assert report["ok"] is False
    assert report["cases"]["a"]["regressed"]


def test_cli_bench_diff_warn_only_reports_but_exits_zero(tmp_path, capsys):
    path = _write_history(tmp_path, _payload(40.0, a=50.0),
                          _payload(20.0, a=25.0))
    out = io.StringIO()
    rc = main(["bench-diff", path, path, "--select", "last",
               "--baseline-select", "first", "--warn-only"], out)
    assert rc == 0
    assert "REGRESSED" in out.getvalue()
    assert "warn-only" in capsys.readouterr().err


def test_cli_bench_diff_vs_committed_speed_artifact_exits_zero():
    # Self-comparison of the committed artifact: the acceptance check
    # that the gate tooling agrees the banked baseline is not regressed.
    out = io.StringIO()
    rc = main(["bench-diff", "BENCH_speed.json", "BENCH_speed.json"], out)
    assert rc == 0


def test_cli_bench_diff_usage_error_exits_two(tmp_path):
    out = io.StringIO()
    rc = main(["bench-diff", str(tmp_path / "missing.json"),
               "BENCH_speed.json"], out)
    assert rc == 2


def test_cli_bench_speed_history_append(tmp_path):
    history = tmp_path / "BENCH_history.jsonl"
    out = io.StringIO()
    rc = main(["bench-speed", "--repeats", "1", "--max-instructions", "1000",
               "--cases", "soplex_cfd", "--artifact-dir", str(tmp_path),
               "--history", str(history), "--history-label", "t"], out)
    assert rc == 0
    (entry,) = load_history(str(history))
    assert entry["label"] == "t"
    assert "soplex_cfd" in entry["cases"]
