"""Structured pipeline event tracing.

The :class:`PipelineObserver` protocol defines the hook points the cycle
core calls at its stage boundaries.  Every method is a no-op here, and the
pipeline guards each call site with ``if self.obs is not None`` — so with
tracing disabled (the default) a simulation pays exactly one attribute
test per boundary, nothing more.

Hook points (see ``docs/OBSERVABILITY.md``):

===============  ==========================================================
``on_fetch``     a uop entered the fetch pipe
``on_rename``    a uop was renamed/dispatched into the window
``on_issue``     a uop was selected by the scheduler
``on_execute``   a uop finished execution (or a store captured its data)
``on_retire``    a uop committed
``on_squash``    a wrong-path uop was discarded
``on_recovery``  a control-flow recovery fired (``kind`` says which repair:
                 ``checkpoint``, ``retire-pending`` or ``retire``)
``on_cycle_end`` one simulated cycle finished (pipeline passed for sampling)
===============  ==========================================================

:class:`EventTracer` records these as :class:`TraceEvent` tuples in a
bounded :class:`RingBuffer` and assembles per-instruction
:class:`InstLifecycle` records; :class:`CycleRecorder` records one row
per cycle (front-end state, event counts and structure occupancies) for
the text timeline and the counter tracks.  Both are plain observers —
attach them with ``pipeline.attach_observer(...)``.
"""

from collections import namedtuple
from itertools import islice

from repro.isa.opcodes import OpClass

#: Event kinds produced by :class:`EventTracer`, in pipeline order.
EVENT_KINDS = (
    "fetch",
    "rename",
    "issue",
    "execute",
    "retire",
    "squash",
    "recovery",
)

#: One structured event: simulated cycle, kind (see :data:`EVENT_KINDS`),
#: instruction sequence number, PC, opcode mnemonic, optional info dict.
TraceEvent = namedtuple("TraceEvent", "cycle kind seq pc op info")


class PipelineObserver:
    """No-op base observer; subclass and override the hooks you need."""

    __slots__ = ()

    def on_fetch(self, uop, cycle):
        pass

    def on_rename(self, uop, cycle):
        pass

    def on_issue(self, uop, cycle):
        pass

    def on_execute(self, uop, cycle):
        pass

    def on_retire(self, uop, cycle):
        pass

    def on_squash(self, uop, cycle):
        pass

    def on_recovery(self, uop, cycle, kind):
        pass

    def on_cycle_end(self, pipeline):
        pass

    def on_warm_skip(self, pipeline, count):
        """Sampled simulation advanced *count* instructions functionally.

        No per-instruction hooks fire for the skipped region (there are
        no uops — the warm mode runs the committed state only, see
        :mod:`repro.core.warm`).  Observers that shadow the retire
        stream (e.g. the reliability layer's independent oracle) use
        this to fast-forward; everyone else can ignore it.
        """


class MultiObserver(PipelineObserver):
    """Fans every hook out to a list of observers."""

    __slots__ = ("observers",)

    def __init__(self, observers=()):
        self.observers = list(observers)

    def add(self, observer):
        self.observers.append(observer)
        return observer

    def remove(self, observer):
        self.observers.remove(observer)

    def on_fetch(self, uop, cycle):
        for obs in self.observers:
            obs.on_fetch(uop, cycle)

    def on_rename(self, uop, cycle):
        for obs in self.observers:
            obs.on_rename(uop, cycle)

    def on_issue(self, uop, cycle):
        for obs in self.observers:
            obs.on_issue(uop, cycle)

    def on_execute(self, uop, cycle):
        for obs in self.observers:
            obs.on_execute(uop, cycle)

    def on_retire(self, uop, cycle):
        for obs in self.observers:
            obs.on_retire(uop, cycle)

    def on_squash(self, uop, cycle):
        for obs in self.observers:
            obs.on_squash(uop, cycle)

    def on_recovery(self, uop, cycle, kind):
        for obs in self.observers:
            obs.on_recovery(uop, cycle, kind)

    def on_cycle_end(self, pipeline):
        for obs in self.observers:
            obs.on_cycle_end(pipeline)

    def on_warm_skip(self, pipeline, count):
        for obs in self.observers:
            obs.on_warm_skip(pipeline, count)


class RingBuffer:
    """Fixed-capacity ring: appends overwrite the oldest entry.

    Iteration yields surviving items oldest-first; ``dropped`` counts the
    overwritten ones, so exporters can say how much history was truncated.
    """

    __slots__ = ("capacity", "_items", "_start", "dropped")

    def __init__(self, capacity):
        if capacity <= 0:
            raise ValueError("ring capacity must be positive (got %r)" % capacity)
        self.capacity = capacity
        self._items = []
        self._start = 0
        self.dropped = 0

    def append(self, item):
        if len(self._items) < self.capacity:
            self._items.append(item)
        else:
            self._items[self._start] = item
            self._start = (self._start + 1) % self.capacity
            self.dropped += 1

    def __len__(self):
        return len(self._items)

    def __iter__(self):
        items = self._items
        start = self._start
        for offset in range(len(items)):
            yield items[(start + offset) % len(items)]

    def to_list(self):
        return list(self)

    def clear(self):
        self._items = []
        self._start = 0
        self.dropped = 0


class InstLifecycle:
    """Per-instruction stage timestamps (cycles; ``None`` = not reached)."""

    __slots__ = ("seq", "pc", "op", "fetch", "rename", "issue", "execute",
                 "retire", "squash")

    def __init__(self, seq, pc, op, fetch=None):
        self.seq = seq
        self.pc = pc
        self.op = op
        self.fetch = fetch
        self.rename = None
        self.issue = None
        self.execute = None
        self.retire = None
        self.squash = None

    @property
    def end(self):
        """Cycle the instruction left the pipeline (retire or squash)."""
        return self.retire if self.retire is not None else self.squash

    @property
    def completed(self):
        return self.end is not None

    def to_dict(self):
        return {
            "seq": self.seq,
            "pc": self.pc,
            "op": self.op,
            "fetch": self.fetch,
            "rename": self.rename,
            "issue": self.issue,
            "execute": self.execute,
            "retire": self.retire,
            "squash": self.squash,
        }


def _mnemonic(uop):
    opcode = getattr(uop.inst, "opcode", None)
    name = getattr(opcode, "name", None)
    return name.lower() if name else str(opcode)


def trace_event(kind, uop, cycle, info=None):
    """The :class:`TraceEvent` of one hook call on *uop*."""
    return TraceEvent(cycle, kind, uop.seq, uop.pc, _mnemonic(uop), info)


def format_event(event):
    """One :class:`TraceEvent` as a diagnostic line (no indent)."""
    return "cycle %d %-8s seq=%d pc=%d %s" % (
        event.cycle, event.kind, event.seq, event.pc, event.op)


class EventTracer(PipelineObserver):
    """Records structured events and instruction lifecycles.

    *capacity* bounds the event ring; *lifecycle_capacity* bounds the ring
    of completed lifecycles (in-flight ones live in a dict until they
    retire or squash).  ``counts`` aggregates events per kind regardless
    of truncation.
    """

    __slots__ = ("events", "lifecycles", "counts", "_open")

    def __init__(self, capacity=65536, lifecycle_capacity=8192):
        self.events = RingBuffer(capacity)
        self.lifecycles = RingBuffer(lifecycle_capacity)
        self.counts = {kind: 0 for kind in EVENT_KINDS}
        self._open = {}

    # -- hook implementations -------------------------------------------------

    def _event(self, kind, uop, cycle, info=None):
        self.counts[kind] += 1
        self.events.append(trace_event(kind, uop, cycle, info))

    def on_fetch(self, uop, cycle):
        self._event("fetch", uop, cycle)
        self._open[uop.seq] = InstLifecycle(
            uop.seq, uop.pc, _mnemonic(uop), fetch=cycle
        )

    def on_rename(self, uop, cycle):
        self._event("rename", uop, cycle)
        lifecycle = self._open.get(uop.seq)
        if lifecycle is not None:
            lifecycle.rename = cycle

    def on_issue(self, uop, cycle):
        self._event("issue", uop, cycle)
        lifecycle = self._open.get(uop.seq)
        if lifecycle is not None:
            lifecycle.issue = cycle

    def on_execute(self, uop, cycle):
        self._event("execute", uop, cycle)
        lifecycle = self._open.get(uop.seq)
        if lifecycle is not None:
            lifecycle.execute = cycle

    def on_retire(self, uop, cycle):
        self._event("retire", uop, cycle)
        self._close(uop.seq, "retire", cycle)

    def on_squash(self, uop, cycle):
        self._event("squash", uop, cycle)
        self._close(uop.seq, "squash", cycle)

    def on_recovery(self, uop, cycle, kind):
        self._event("recovery", uop, cycle, info={"repair": kind})

    def _close(self, seq, attr, cycle):
        lifecycle = self._open.pop(seq, None)
        if lifecycle is not None:
            setattr(lifecycle, attr, cycle)
            self.lifecycles.append(lifecycle)

    # -- access ---------------------------------------------------------------

    def __len__(self):
        return len(self.events)

    def iter_events(self):
        return iter(self.events)

    def iter_lifecycles(self, include_open=False):
        """Completed lifecycles oldest-first (optionally in-flight too)."""
        for lifecycle in self.lifecycles:
            yield lifecycle
        if include_open:
            for seq in sorted(self._open):
                yield self._open[seq]


class CycleRecord(namedtuple("CycleRecord", (
    "cycle fetch_pc fetched renamed issued retired squashed recoveries "
    "bq_misses spec_tcr fetch_stalled rob iq bq tq lq sq mshr"
))):
    """One cycle's row: its index (the ``cycle`` events carry), the
    front end's state and the cycle's event counts, and the occupancy of
    the windows, CFD queues and L1D MSHRs at its end."""

    __slots__ = ()

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


class CycleRecorder(PipelineObserver):
    """Records one :class:`CycleRecord` per simulated cycle.

    The event counts come from the same hooks every observer sees, so the
    timeline cannot drift from the simulation.  ``bq_misses`` counts
    retiring speculative BQ pops (exactly the retirements that bump
    ``SimStats.bq_misses``); ``recoveries`` counts every ``on_recovery``
    hook, both the execute-time repair and the retirement recovery.

    Rows go to a bounded :class:`RingBuffer` of *capacity* rows, so past
    that many cycles the oldest are overwritten (and counted in
    ``records.dropped``); :meth:`render` and :meth:`utilization` cover
    the rows it holds.

    The run loop stops right after the retire stage of its last cycle
    (the one that retires ``HALT`` or reaches the retire limit), before
    the cycle-end hook.  To record that cycle too, end it for the
    attached observers after the run with
    ``pipeline.obs.on_cycle_end(pipeline)``, as ``repro trace`` does.
    """

    __slots__ = ("records", "fetched", "renamed", "issued", "retired",
                 "squashed", "recoveries", "bq_misses")

    def __init__(self, capacity=65536):
        self.records = RingBuffer(capacity)
        self._reset_counts()

    def _reset_counts(self):
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
        cycle = pipeline.cycle
        self.records.append(CycleRecord(
            cycle=cycle,
            fetch_pc=pipeline.fetch_pc,
            fetched=self.fetched,
            renamed=self.renamed,
            issued=self.issued,
            retired=self.retired,
            squashed=self.squashed,
            recoveries=self.recoveries,
            bq_misses=self.bq_misses,
            spec_tcr=pipeline.spec_tcr,
            fetch_stalled=(
                cycle + 1 < pipeline.next_fetch_cycle or pipeline.fetch_halted
            ),
            rob=len(pipeline.rob),
            iq=len(pipeline.iq),
            bq=pipeline.hw_bq.length,
            tq=pipeline.hw_tq.length,
            lq=len(pipeline.load_queue),
            sq=len(pipeline.store_queue),
            mshr=pipeline.mshr.occupancy(cycle),
        ))
        self._reset_counts()

    def render(self, start=0, count=50):
        """A fixed-width timeline of *count* rows from the *start*-th
        row held.  The cycle column counts cycles elapsed at each row's
        end, so the first cycle of a run shows as 1."""
        header = "cycle  fetchPC  F R I C  ROB  IQ  BQ  TQ  TCR  events"
        lines = [header, "-" * len(header)]
        for record in islice(self.records, start, start + count):
            lines.append(
                "%5d  %7d  %d %d %d %d  %3d %3d %3d %3d %4d  %s"
                % (
                    record.cycle + 1,
                    record.fetch_pc,
                    record.fetched,
                    record.renamed,
                    record.issued,
                    record.retired,
                    record.rob,
                    record.iq,
                    record.bq,
                    record.tq,
                    record.spec_tcr,
                    record.flags(),
                )
            )
        return "\n".join(lines)

    def utilization(self):
        """Per-cycle averages over the rows held (``{}`` when none)."""
        records = self.records.to_list()
        if not records:
            return {}
        n = len(records)
        return {
            "cycles": n,
            "avg_fetch": sum(r.fetched for r in records) / n,
            "avg_retire": sum(r.retired for r in records) / n,
            "avg_rob": sum(r.rob for r in records) / n,
            "avg_bq": sum(r.bq for r in records) / n,
            "recovery_cycles": sum(1 for r in records if r.recoveries),
            "stall_cycles": sum(1 for r in records if r.fetch_stalled),
        }
