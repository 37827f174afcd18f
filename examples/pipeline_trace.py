#!/usr/bin/env python
"""Watching the pipeline work: a cycle-by-cycle trace of CFD in action.

Runs a small decoupled loop under the per-cycle recorder and prints the
timeline around the generator->consumer transition: you can see the BQ
fill during the predicate loop and drain — with zero recoveries — during
the consumer loop, then compare against the same program with push and
pop adjacent (BQ misses, speculation, late-push repairs).

Run:  python examples/pipeline_trace.py
"""

import numpy as np

from repro import assemble, sandy_bridge_config
from repro.core.pipeline import Pipeline
from repro.obs.events import CycleRecorder
from repro.workloads.builders import install_array

DECOUPLED = """
.data
vals: .space 64
.text
main:
    la   r1, vals
    li   r3, 64
gen:
    lw   r5, 0(r1)
    push_bq r5
    addi r1, r1, 4
    addi r3, r3, -1
    bnez r3, gen
    li   r3, 64
use:
    b_bq one
    j    next
one:
    addi r4, r4, 1
next:
    addi r3, r3, -1
    bnez r3, use
    halt
"""

ADJACENT = """
.data
vals: .space 64
.text
main:
    la   r1, vals
    li   r3, 64
loop:
    lw   r5, 0(r1)
    push_bq r5
    b_bq one
    j    next
one:
    addi r4, r4, 1
next:
    addi r1, r1, 4
    addi r3, r3, -1
    bnez r3, loop
    halt
"""


def trace(name, source):
    program = assemble(source, name=name)
    install_array(program, "vals", np.random.default_rng(2).integers(0, 2, 64))
    pipeline = Pipeline(program, sandy_bridge_config(max_cycles=10_000))
    recorder = CycleRecorder()
    pipeline.attach_observer(recorder)
    pipeline.run()
    if pipeline.sim_done:
        # End the cycle the run stopped in, as `repro trace` does.
        pipeline.obs.on_cycle_end(pipeline)
    print()
    print("### %s" % name)
    # skip the cold I-cache fill at the start of the trace
    print(recorder.render(start=265, count=24))
    util = recorder.utilization()
    print("cycles %d | avg fetch %.2f | avg BQ occupancy %.1f | "
          "recovery cycles %d" % (
              util["cycles"], util["avg_fetch"], util["avg_bq"],
              util["recovery_cycles"]))
    return pipeline


def main():
    print("events column: R=recovery  x=squash  m=BQ miss  s=fetch stalled")
    good = trace("decoupled", DECOUPLED)
    bad = trace("adjacent push/pop", ADJACENT)
    print()
    print("Decoupled: the BQ column fills to ~64 during the generator loop")
    print("and drains through fetch-resolved pops — no R events after the")
    print("warm-up mispredicts of the loop bookkeeping.")
    print("Adjacent: every pop misses (m), speculates, and half the late")
    print("pushes trigger repairs (R) — the timeline shows the storm.")
    assert good.stats.bq_misses == 0
    assert bad.stats.bq_misses > 0


if __name__ == "__main__":
    main()
