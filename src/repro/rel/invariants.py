"""Opt-in microarchitectural invariant checking for the cycle core.

The pipeline already self-verifies at retirement (every retired uop is
replayed on the built-in functional checker).  That catches divergence
*per instruction* but shares state with the pipeline — a fault that
corrupts the committed state corrupts the reference too.  The
:class:`InvariantChecker` is an independent second line of defence,
attached through the ordinary :class:`~repro.obs.events.PipelineObserver`
hooks, so it costs nothing unless attached:

**Architectural cross-check** (every ``arch_check_every`` retirements):
an independent :class:`~repro.arch.executor.FunctionalExecutor` is
stepped once per retired instruction, and its full architectural state
(registers, memory, BQ/VQ/TQ contents, TCR, PC) is compared against the
pipeline's committed state.  Because this oracle shares nothing with the
pipeline, it catches corruption of the committed state itself.

**Occupancy and pointer invariants** (every cycle, O(1)): for each CFD
structure (hardware BQ, hardware TQ, VQ renamer) the monotonic-pointer
algebra must hold — ``0 <= length <= size``, retired pushes/pops never
outrun fetched ones, pops never retire ahead of pushes — and the
ROB/IQ/LQ/SQ occupancies must respect their configured capacities.
Instruction conservation is checked from the observer's own hook
counters (warmup resets ``SimStats``, so those cannot be used):
``fetched == retired + squashed + |rob| + |fetch_pipe|``.

**Deep structural checks** (every ``deep_check_every`` cycles, O(window)):
ROB sequence numbers strictly increasing, no squashed/issued entries
lingering in the IQ, every IQ entry backed by a ROB entry.

Violations raise :class:`~repro.errors.SimulatorInvariantError` with the
failing relation and the checker's last-N pipeline events, so a corrupted
point in a thousand-point sweep is diagnosable from the exception text.
The checker never mutates pipeline state: enabling it changes no
architectural result (the stats are bit-identical with it on or off).
"""

from collections import deque

from repro.arch.executor import FunctionalExecutor
from repro.arch.state import ArchState
from repro.errors import SimulatorInvariantError
from repro.obs.events import PipelineObserver, format_event, trace_event


class InvariantChecker(PipelineObserver):
    """Independent invariant checker; attach with :meth:`attach`."""

    __slots__ = ("arch_check_every", "deep_check_every", "events",
                 "fetched", "retired", "squashed",
                 "arch_checks", "cycle_checks", "deep_checks",
                 "_pipeline", "_oracle")

    def __init__(self, arch_check_every=2000, deep_check_every=64,
                 recent_events=32):
        self.arch_check_every = max(1, int(arch_check_every))
        self.deep_check_every = max(1, int(deep_check_every))
        self.events = deque(maxlen=max(1, int(recent_events)))
        self.fetched = 0
        self.retired = 0
        self.squashed = 0
        self.arch_checks = 0
        self.cycle_checks = 0
        self.deep_checks = 0
        self._pipeline = None
        self._oracle = None

    @classmethod
    def attach(cls, pipeline, **kwargs):
        """Build a checker bound to *pipeline* and attach it; returns it."""
        checker = cls(**kwargs)
        checker.bind(pipeline)
        pipeline.attach_observer(checker)
        return checker

    def bind(self, pipeline):
        """Bind to *pipeline*: build the independent functional oracle.

        Called automatically on the first ``on_cycle_end`` when the
        checker was attached without it (e.g. through a generic
        ``observer=`` parameter); cycle 0 ends before the first possible
        retirement, so lazy binding never misses an instruction.
        """
        config = pipeline.config
        self._pipeline = pipeline
        self._oracle = FunctionalExecutor(
            pipeline.program,
            ArchState(
                pipeline.program,
                bq_size=config.bq_size,
                vq_size=config.vq_size,
                tq_size=config.tq_size,
                tq_bits=config.tq_bits,
            ),
        )
        return self

    # ------------------------------------------------------------- events

    def _event(self, kind, uop, cycle):
        self.events.append(trace_event(kind, uop, cycle))

    def iter_events(self):
        """Last-N events, oldest first (consumed by the deadlock dump)."""
        return iter(self.events)

    def counters(self):
        return {
            "fetched": self.fetched,
            "retired": self.retired,
            "squashed": self.squashed,
            "arch_checks": self.arch_checks,
            "cycle_checks": self.cycle_checks,
            "deep_checks": self.deep_checks,
        }

    def _violate(self, message):
        lines = [message]
        if self.events:
            lines.append("recent events:")
            lines.extend("  " + format_event(e) for e in self.events)
        raise SimulatorInvariantError("\n".join(lines))

    # -------------------------------------------------------------- hooks

    def on_fetch(self, uop, cycle):
        self.fetched += 1
        self._event("fetch", uop, cycle)

    def on_squash(self, uop, cycle):
        self.squashed += 1
        self._event("squash", uop, cycle)

    def on_retire(self, uop, cycle):
        self.retired += 1
        self._event("retire", uop, cycle)
        oracle = self._oracle
        if oracle is None:
            return
        record = oracle.step()
        if record is None:
            self._violate(
                "independent oracle halted at retirement %d but the core "
                "retired pc %d (%s)" % (self.retired, uop.pc, uop.inst)
            )
        if record.pc != uop.pc:
            self._violate(
                "retire stream diverged from the independent oracle at "
                "retirement %d: core pc %d (%s), oracle pc %d (%s)"
                % (self.retired, uop.pc, uop.inst, record.pc, record.inst)
            )
        if self.retired % self.arch_check_every == 0:
            self._cross_check()

    def on_cycle_end(self, pipeline):
        if self._pipeline is None:
            self.bind(pipeline)
        self.cycle_checks += 1
        self._check_occupancy(pipeline)
        if self.cycle_checks % self.deep_check_every == 0:
            self._deep_check(pipeline)

    def on_warm_skip(self, pipeline, count):
        """Sampled-run warm gap: fast-forward the independent oracle.

        The skipped instructions were executed functionally (no uops, no
        per-instruction hooks), so the oracle replays them without
        checking — per-retirement and architectural cross-checks apply
        inside detailed intervals only.  The arch cross-check at the
        next detailed retirement still catches committed-state
        corruption across the gap.
        """
        if self._pipeline is None:
            self.bind(pipeline)
        advanced = self._oracle.run(count)
        if advanced != count and not self._oracle.state.halted:
            self._violate(
                "independent oracle advanced %d of %d warm-skip "
                "instructions without halting" % (advanced, count)
            )

    # ------------------------------------------------------------- checks

    def _cross_check(self):
        self.arch_checks += 1
        core = self._pipeline.checker.state
        oracle = self._oracle.state
        if not core.same_architectural_state(oracle, compare_pc=True):
            self._violate(
                "committed architectural state diverged from the "
                "independent oracle at retirement %d: %s"
                % (self.retired, core.diff(oracle))
            )

    def _check_occupancy(self, pipeline):
        for name, queue in (("bq", pipeline.hw_bq),
                            ("tq", pipeline.hw_tq),
                            ("vq", pipeline.vq_renamer)):
            length = queue.length
            if not 0 <= length <= queue.size:
                self._violate(
                    "%s occupancy out of range at cycle %d: length %d, "
                    "size %d (fetch_tail %d, committed_head %d)"
                    % (name, pipeline.cycle, length, queue.size,
                       queue.fetch_tail, queue.committed_head)
                )
            if queue.committed_head > queue.committed_tail:
                self._violate(
                    "%s retired more pops than pushes at cycle %d "
                    "(committed_head %d > committed_tail %d)"
                    % (name, pipeline.cycle, queue.committed_head,
                       queue.committed_tail)
                )
            if queue.committed_tail > queue.fetch_tail:
                self._violate(
                    "%s retired more pushes than it fetched at cycle %d "
                    "(committed_tail %d > fetch_tail %d)"
                    % (name, pipeline.cycle, queue.committed_tail,
                       queue.fetch_tail)
                )
            if queue.committed_head > queue.fetch_head:
                self._violate(
                    "%s retired more pops than it fetched at cycle %d "
                    "(committed_head %d > fetch_head %d)"
                    % (name, pipeline.cycle, queue.committed_head,
                       queue.fetch_head)
                )
        config = pipeline.config
        for name, occupied, capacity in (
            ("rob", len(pipeline.rob), config.rob_size),
            ("iq", len(pipeline.iq), config.iq_size),
            ("lq", len(pipeline.load_queue), config.lq_size),
            ("sq", len(pipeline.store_queue), config.sq_size),
        ):
            if occupied > capacity:
                self._violate(
                    "%s over capacity at cycle %d: %d entries, size %d"
                    % (name, pipeline.cycle, occupied, capacity)
                )
        in_window = len(pipeline.rob) + len(pipeline.fetch_pipe)
        accounted = self.retired + self.squashed + in_window
        if self.fetched != accounted:
            self._violate(
                "instruction conservation broken at cycle %d: fetched %d "
                "!= retired %d + squashed %d + in-flight %d"
                % (pipeline.cycle, self.fetched, self.retired,
                   self.squashed, in_window)
            )

    def _deep_check(self, pipeline):
        self.deep_checks += 1
        cycle = pipeline.cycle
        previous = None
        rob_seqs = set()
        for uop in pipeline.rob:
            if previous is not None and uop.seq <= previous:
                self._violate(
                    "rob order broken at cycle %d: seq %d follows seq %d"
                    % (cycle, uop.seq, previous)
                )
            previous = uop.seq
            rob_seqs.add(uop.seq)
        for uop in pipeline.iq:
            if uop.squashed:
                self._violate(
                    "squashed uop seq %d (pc %d) still in the iq at cycle %d"
                    % (uop.seq, uop.pc, cycle)
                )
            if uop.seq not in rob_seqs:
                self._violate(
                    "iq entry seq %d (pc %d) has no rob entry at cycle %d"
                    % (uop.seq, uop.pc, cycle)
                )
