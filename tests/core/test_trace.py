"""The per-cycle timeline (:class:`repro.obs.events.CycleRecorder`)."""

from repro.core import sandy_bridge_config
from repro.core.pipeline import Pipeline
from repro.obs.events import CycleRecorder


def _trace(program, max_cycles=10_000, capacity=65536):
    """Run *program* with a recorder attached, ending the cycle the run
    stopped in as ``repro trace`` does; returns (pipeline, recorder)."""
    pipeline = Pipeline(program, sandy_bridge_config(max_cycles=max_cycles))
    recorder = CycleRecorder(capacity)
    pipeline.attach_observer(recorder)
    pipeline.run()
    if pipeline.sim_done:
        pipeline.obs.on_cycle_end(pipeline)
    return pipeline, recorder


def test_trace_runs_to_completion(count_program):
    pipeline, recorder = _trace(count_program)
    records = recorder.records.to_list()
    assert records
    assert pipeline.sim_done
    # totals in the trace match the stats counters
    assert sum(r.retired for r in records) == pipeline.stats.retired
    assert sum(r.fetched for r in records) == pipeline.stats.fetched


def test_trace_captures_bq_activity(count_program):
    _, recorder = _trace(count_program)
    assert max(r.bq for r in recorder.records) > 0


def test_trace_flags_recoveries(count_program):
    import numpy as np

    from repro.isa import assemble
    from repro.workloads.builders import install_array

    program = assemble(
        """
.data
arr: .space 64
.text
main:
    la   r1, arr
    li   r3, 64
loop:
    lw   r5, 0(r1)
    beqz r5, skip
    addi r4, r4, 1
skip:
    addi r1, r1, 4
    addi r3, r3, -1
    bnez r3, loop
    halt
"""
    )
    install_array(program, "arr", np.random.default_rng(3).integers(0, 2, 64))
    _, recorder = _trace(program)
    flagged = [r for r in recorder.records if "R" in r.flags()]
    assert flagged  # mispredict recoveries visible in the timeline


def test_render_and_utilization(count_program):
    _, recorder = _trace(count_program)
    text = recorder.render(count=20)
    assert "fetchPC" in text
    assert len(text.splitlines()) <= 22
    util = recorder.utilization()
    assert util["cycles"] == len(recorder.records)
    assert 0 <= util["avg_fetch"] <= 4
    assert util["stall_cycles"] >= 0


def test_max_cycles_cap(count_program):
    pipeline, recorder = _trace(count_program, max_cycles=5)
    assert len(recorder.records) == 5
    assert not pipeline.sim_done


def test_ring_keeps_the_latest_rows(count_program):
    """Past its capacity the recorder keeps the most recent rows; the
    timeline and the averages cover those, the dropped ones are counted."""
    pipeline, full = _trace(count_program)
    _, ring = _trace(count_program, capacity=8)
    total = len(full.records)
    assert total > 8
    assert len(ring.records) == 8
    assert ring.records.dropped == total - 8
    assert ring.records.to_list() == full.records.to_list()[-8:]
    lines = ring.render(count=50).splitlines()
    assert len(lines) == 2 + 8
    assert lines[-1] == full.render(start=total - 1).splitlines()[-1]
    assert ring.utilization()["cycles"] == 8
    # The last row is the cycle the run stopped in; it is not counted.
    assert ring.records.to_list()[-1].cycle == pipeline.stats.cycles


def test_repro_trace_render_is_pinned(tmp_path):
    """``repro trace`` of a short run to its retire limit, rendered to its
    last row: the cycle the run stopped in, where only the retire stage
    ran.  Recorded with ``repro.core.trace.PipelineTracer``, the
    recorder's predecessor."""
    import io

    from repro.cli import main

    out = io.StringIO()
    path = tmp_path / "t.json"
    assert main(["trace", "soplex", "--variant", "cfd", "--scale", "0.125",
                 "--max-instructions", "400", "--render",
                 "--render-start", "1061", "--render-count", "30",
                 "--output", str(path)], out=out) == 0
    assert out.getvalue().splitlines() == [
        "cycle  fetchPC  F R I C  ROB  IQ  BQ  TQ  TCR  events",
        "-----------------------------------------------------",
        " 1062       19  4 4 4 4  157  54  91   0    0  ",
        " 1063       15  2 4 4 4  157  54  91   0    0  ",
        " 1064       19  4 4 4 4  157  54  92   0    0  ",
        " 1065       15  2 4 4 4  157  54  92   0    0  ",
        " 1066       19  4 4 4 4  157  54  93   0    0  ",
        " 1067       15  2 4 4 4  157  54  93   0    0  ",
        " 1068       19  4 3 3 4  156  54  94   0    0  ",
        " 1069       15  2 3 3 4  155  54  94   0    0  ",
        " 1070       19  4 2 2 2  155  54  95   0    0  ",
        " 1071       15  2 2 2 0  157  54  95   0    0  ",
        " 1072       19  4 2 2 0  159  54  96   0    0  ",
        " 1073       15  2 0 0 0  159  54  96   0    0  ",
        " 1074       19  4 0 0 0  159  54  97   0    0  ",
        " 1075       15  2 0 0 0  159  54  97   0    0  ",
        " 1076       19  4 3 3 0  162  54  98   0    0  ",
        " 1077       19  0 0 0 1  161  54  98   0    0  ",
        "traced 1077 cycles of soplex(ref)/cfd: 2562 events (0 dropped), "
        "400 lifecycles -> %s" % path,
    ]
