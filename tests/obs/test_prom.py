"""Prometheus exposition-format rendering (text format 0.0.4).

Names must be sanitized into the ``repro_`` namespace, HELP/TYPE headers
appear once per metric name, histogram buckets are cumulative with an
``+Inf`` terminator, and label values are escaped — the properties a
real scraper depends on.
"""

import os
import stat
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.obs.metrics import histogram
from repro.obs.prom import (
    format_labels,
    metric_name,
    render_snapshot,
    render_sweep,
    write_prom,
)

ROOT = Path(__file__).resolve().parents[2]


def test_metric_name_sanitizes_into_namespace():
    assert metric_name("bq.miss_rate") == "repro_bq_miss_rate"
    assert metric_name("memsys.l1d.mshr occupancy") == \
        "repro_memsys_l1d_mshr_occupancy"
    assert metric_name("weird-chars!", prefix="") == "weird_chars_"


def test_label_escaping():
    rendered = format_labels({"point": 'soplex("ref")\\cfd'})
    assert rendered == '{point="soplex(\\"ref\\")\\\\cfd"}'
    assert format_labels({}) == ""


def test_render_snapshot_counters_gauges_histograms():
    text = render_snapshot({
        "fetch.stall_cycles": 7,
        "bq.occupancy": 3,
        "retire.latency": histogram({1: 2, 5: 1}),
    })
    assert "repro_fetch_stall_cycles 7" in text
    assert "repro_bq_occupancy 3" in text
    assert "# TYPE repro_retire_latency histogram" in text
    # Cumulative buckets: le=1 holds 2, le=5 holds 2+1, +Inf the count.
    assert 'repro_retire_latency_bucket{le="1"} 2' in text
    assert 'repro_retire_latency_bucket{le="5"} 3' in text
    assert 'repro_retire_latency_bucket{le="+Inf"} 3' in text
    assert "repro_retire_latency_sum 7.0" in text
    assert "repro_retire_latency_count 3" in text
    # One TYPE header per name.
    assert text.count("# TYPE repro_retire_latency") == 1


def test_render_snapshot_flat_dict():
    text = render_snapshot({
        "bq.pops": 12,
        "bq.miss_rate": 0.25,
        "core.flags": "not-a-number",  # skipped, not an error
        "retire.latency": {"count": 2, "sum": 6.0, "buckets": {"3": 2}},
    })
    assert "repro_bq_pops 12" in text
    assert "repro_bq_miss_rate 0.25" in text
    assert "flags" not in text
    assert 'repro_retire_latency_bucket{le="3"} 2' in text
    assert text.endswith("\n")


def test_render_sweep_names_and_point_series():
    snapshot = {
        "sweep": {"label": "s", "total": 2, "jobs": 2, "policy": None,
                  "started": 1.0, "finished": 2.0},
        "counters": {"events": 9, "heartbeats": 1, "cache_hits": 1,
                     "journal_resumes": 0, "retries": 1, "timeouts": 0,
                     "pool_respawns": 0, "degraded": 0, "workers": 2},
        "totals": {"points": 2, "expected": 2, "settled": 2, "running": 0,
                   "by_status": {"done": 1, "cached": 1}, "retired": 4000,
                   "sim_seconds": 0.5, "agg_kips": 8.0, "elapsed": 1.0,
                   "peak_rss_kb": 100, "cpu_seconds": 0.4},
        "points": [
            {"label": "a/base", "status": "done", "retired": 4000,
             "kips": 8.0, "seconds": 0.5, "attempts": 2},
            {"label": "a/cfd", "status": "cached", "retired": 0,
             "kips": 0.0, "seconds": 0.0, "attempts": 0},
        ],
    }
    text = render_sweep(snapshot)
    assert "repro_sweep_points_total 2" in text
    assert 'repro_sweep_points_by_status{status="done"} 1' in text
    assert "repro_sweep_retired_instructions_total 4000" in text
    assert "repro_sweep_retries_total 1" in text
    assert "repro_sweep_finished 1" in text
    assert 'repro_sweep_point_kips{point="a/base"} 8.0' in text
    assert 'repro_sweep_point_attempts{point="a/base"} 2' in text
    # Headers once even with two labelled samples of the same name.
    assert text.count("# TYPE repro_sweep_point_kips") == 1


def test_write_prom_atomic_replace(tmp_path):
    path = tmp_path / "nested" / "metrics.prom"
    write_prom(str(path), "repro_x 1\n")
    write_prom(str(path), "repro_x 2\n")
    assert path.read_text() == "repro_x 2\n"
    leftovers = [p for p in path.parent.iterdir() if p.name != path.name]
    assert leftovers == []  # no tmp files left behind


def test_atomic_replace_publishes_the_mode_open_would(tmp_path):
    """``fsio.atomic_replace`` (behind ``write_prom``, the result cache
    and the daemon's runtime files) leaves the mode a plain ``open``
    would: a textfile collector running as another user can read it."""
    fresh = tmp_path / "metrics.prom"
    kept = tmp_path / "http.addr"
    kept.write_text("old\n")
    os.chmod(kept, 0o640)
    script = textwrap.dedent("""
        import os, sys
        os.umask(0o022)
        from repro.fsio import atomic_replace
        atomic_replace(sys.argv[1], "repro_x 1\\n")
        atomic_replace(sys.argv[2], "new\\n")
    """)
    subprocess.run(
        [sys.executable, "-c", script, str(fresh), str(kept)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True,
        timeout=60,
    )
    assert fresh.read_text() == "repro_x 1\n"
    assert stat.S_IMODE(fresh.stat().st_mode) == 0o644
    assert kept.read_text() == "new\n"
    assert stat.S_IMODE(kept.stat().st_mode) == 0o640
