"""Per-cycle pipeline tracing.

A :class:`PipelineTracer` is a pipeline observer that records a compact
snapshot at the end of each cycle: front-end state (fetch PC, BQ/TQ
pointers, speculative TCR), window occupancies, and the cycle's deltas
(fetched / renamed / issued / retired / squashed).  ``render()`` prints
a timeline — the fastest way to *see* a BQ miss storm, a recovery, or a
fetch stall.

The per-cycle deltas are counted from the same ``on_fetch`` /
``on_retire`` / ``on_squash`` / ``on_recovery`` hooks every other
observer (:class:`~repro.obs.events.PipelineObserver`) sees, and
:meth:`PipelineTracer.run` drives the pipeline's own run loop, so the
timeline cannot drift from the simulation.  Other observers (e.g.
:class:`~repro.obs.events.EventTracer`) can be attached to the same
pipeline and record alongside the tracer.

Usage::

    from repro.core.pipeline import Pipeline
    from repro.core.trace import PipelineTracer

    tracer = PipelineTracer(Pipeline(program, config))
    tracer.run(max_cycles=200)
    print(tracer.render(start=50, count=40))
"""

from dataclasses import dataclass
from typing import List

from repro.isa.opcodes import OpClass
from repro.obs.events import PipelineObserver


@dataclass
class CycleRecord:
    """One cycle's snapshot."""

    cycle: int
    fetch_pc: int
    fetched: int
    renamed: int
    issued: int
    retired: int
    squashed: int
    recoveries: int
    rob_occupancy: int
    iq_occupancy: int
    bq_length: int
    bq_misses: int
    tq_length: int
    spec_tcr: int
    fetch_stalled: bool

    def flags(self):
        """One-character event markers for the timeline."""
        marks = ""
        if self.recoveries:
            marks += "R"
        if self.squashed:
            marks += "x"
        if self.bq_misses:
            marks += "m"
        if self.fetch_stalled:
            marks += "s"
        return marks


class PipelineTracer(PipelineObserver):
    """Records one :class:`CycleRecord` per cycle of the pipeline it watches.

    ``bq_misses`` counts retiring speculative BQ pops — exactly the
    retirements that bump ``SimStats.bq_misses`` — and ``recoveries``
    counts every ``on_recovery`` hook (both the execute-time repair and
    the retirement recovery).
    """

    def __init__(self, pipeline):
        self.pipeline = pipeline
        self.records: List[CycleRecord] = []
        self._reset_deltas()
        pipeline.attach_observer(self)

    def _reset_deltas(self):
        self.fetched = 0
        self.renamed = 0
        self.issued = 0
        self.retired = 0
        self.squashed = 0
        self.recoveries = 0
        self.bq_misses = 0

    def on_fetch(self, uop, cycle):
        self.fetched += 1

    def on_rename(self, uop, cycle):
        self.renamed += 1

    def on_issue(self, uop, cycle):
        self.issued += 1

    def on_retire(self, uop, cycle):
        self.retired += 1
        if uop.bq_spec and uop.opclass == OpClass.BQ_BRANCH:
            self.bq_misses += 1

    def on_squash(self, uop, cycle):
        self.squashed += 1

    def on_recovery(self, uop, cycle, kind):
        self.recoveries += 1

    def on_cycle_end(self, pipeline):
        # The hook runs before the cycle counter advances; the record
        # is stamped with the cycle count after this one.
        cycle = pipeline.cycle + 1
        self.records.append(CycleRecord(
            cycle=cycle,
            fetch_pc=pipeline.fetch_pc,
            fetched=self.fetched,
            renamed=self.renamed,
            issued=self.issued,
            retired=self.retired,
            squashed=self.squashed,
            recoveries=self.recoveries,
            rob_occupancy=len(pipeline.rob),
            iq_occupancy=len(pipeline.iq),
            bq_length=pipeline.hw_bq.length,
            bq_misses=self.bq_misses,
            tq_length=pipeline.hw_tq.length,
            spec_tcr=pipeline.spec_tcr,
            fetch_stalled=(
                cycle < pipeline.next_fetch_cycle or pipeline.fetch_halted
            ),
        ))
        self._reset_deltas()

    def run(self, max_cycles=10_000):
        """Run until completion or *max_cycles* records; returns them.

        Drives :meth:`Pipeline.run` with the pipeline's own retire
        limit and a cycle cap, which is restored on return.
        """
        pipeline = self.pipeline
        budget = max_cycles - len(self.records)
        if pipeline.sim_done or budget <= 0:
            return self.records
        config = pipeline.config
        saved = config.max_cycles
        config.max_cycles = pipeline.cycle + budget
        try:
            pipeline.run(max_instructions=pipeline.retire_limit)
        finally:
            config.max_cycles = saved
        if pipeline.sim_done:
            # The run loop stops right after the retire stage of its
            # last cycle, before the cycle-end hook: end that cycle for
            # every attached observer, as a completed cycle is.
            pipeline.obs.on_cycle_end(pipeline)
            pipeline.cycle += 1
            pipeline.stats.cycles = pipeline.cycle - pipeline._cycle_base
        return self.records

    def render(self, start=0, count=50):
        """A fixed-width timeline of the recorded window."""
        header = (
            "cycle  fetchPC  F R I C  ROB  IQ  BQ  TQ  TCR  events"
        )
        lines = [header, "-" * len(header)]
        for record in self.records[start : start + count]:
            lines.append(
                "%5d  %7d  %d %d %d %d  %3d %3d %3d %3d %4d  %s"
                % (
                    record.cycle,
                    record.fetch_pc,
                    record.fetched,
                    record.renamed,
                    record.issued,
                    record.retired,
                    record.rob_occupancy,
                    record.iq_occupancy,
                    record.bq_length,
                    record.tq_length,
                    record.spec_tcr,
                    record.flags(),
                )
            )
        return "\n".join(lines)

    def utilization(self):
        """Aggregate per-cycle averages over the recorded window."""
        if not self.records:
            return {}
        n = len(self.records)
        return {
            "cycles": n,
            "avg_fetch": sum(r.fetched for r in self.records) / n,
            "avg_retire": sum(r.retired for r in self.records) / n,
            "avg_rob": sum(r.rob_occupancy for r in self.records) / n,
            "avg_bq": sum(r.bq_length for r in self.records) / n,
            "recovery_cycles": sum(1 for r in self.records if r.recoveries),
            "stall_cycles": sum(1 for r in self.records if r.fetch_stalled),
        }
