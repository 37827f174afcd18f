"""Functional warm-mode execution between detailed sampling intervals.

SMARTS-style sampled simulation alternates cheap *functional warming*
with detailed measurement intervals.  :func:`warm_advance` is the warm
mode: it advances the pipeline's committed state (the built-in
:class:`~repro.arch.executor.FunctionalExecutor` checker) one
instruction at a time — no fetch, rename, issue or timing — while
applying the *committed-path* training side effects the detailed core
would have applied:

* direction predictor + JRS confidence: ``predict`` then the
  speculative/retire update pair, collapsed to their committed-path net
  effect (history ends shifted by the actual outcome; the table trains
  on the actual outcome under the prediction-time meta);
* BTB: installed on every taken transfer (and on JALR resolution, as
  the execute stage does);
* RAS: pushed on ``JAL`` with the link register, popped on the
  ``JALR ra`` return idiom;
* caches: one L1I access per new fetch block, and the full data-side
  hierarchy walk for loads, stores and prefetches;
* direction-oracle cursors are consumed for oracle-covered branches so
  a ``perfect``/hybrid predictor stays aligned with the retire stream.

Deliberate approximations (warm state only — measured intervals are
always driven by the detailed core): CFD fetch-resolved control
(``Branch_on_BQ``, ``Branch_on_TCR``, the TQ pops) trains no predictor
state, matching the detailed core's decoupled-hit case; wrong-path
effects (speculative cache pollution, history repair traffic) do not
occur, because warm mode executes only the committed path.

The pre-scan itself is *portable*: :func:`record_portable_trace`
produces a :class:`PortableWarmTrace` — the event stream plus periodic
*stride boundaries* (architectural-state deltas + event offsets) — from
which :meth:`PortableWarmTrace.materialize` derives event offsets and
deep :class:`~repro.arch.state.ArchState` snapshots at **arbitrary**
instruction positions, not just positions known at record time.  Both
execute with per-PC handlers (:class:`_WarmHandlers`) compiled from the
executor's opcode definitions: one call executes an instruction, appends
its events and returns the next instruction's handler, so the scan
builds no :class:`~repro.arch.executor.RetireRecord` and makes no
``step()`` call.  A portable trace round-trips losslessly through
:meth:`~PortableWarmTrace.to_bytes`/:meth:`~PortableWarmTrace.from_bytes`
(schema-versioned, CRC-checked), which is what
:class:`repro.perf.tracestore.TraceStore` persists: one recorded trace
then serves every sampling plan and every timing config whose
:func:`warm_fingerprint` matches.
"""

import functools
import struct
import zlib
from array import array
from bisect import bisect_right
from collections import deque, namedtuple

from repro.arch.executor import compile_handlers
from repro.arch.memory import Memory
from repro.arch.queues import BranchQueue, TripCountQueue, ValueQueue
from repro.arch.state import ArchState
from repro.isa.instructions import LINK_REG, ZERO_REG

#: The pipeline's code base, predecode layout and the enum members it
#: binds once (``OpClass.LOAD`` is an enum-metaclass lookup per use).
from repro.core.pipeline import (
    CODE_BASE,
    _ALU,
    _BQ_BRANCH,
    _BRANCH,
    _D_INST,
    _D_OPCLASS,
    _D_OPCODE,
    _JUMP,
    _LOAD,
    _OP_JAL,
    _OP_JALR,
    _STORE,
    _TCR_BRANCH,
    _TQ_POP_BOV,
)

#: Warm-trace event kinds (see :func:`record_portable_trace`).  One event is
#: (kind, a, b); the meaning of a/b depends on the kind.
_E_ICACHE = 1   # a = fetch address
_E_LOAD = 2     # a = pc, b = data address (includes PREFETCH)
_E_STORE = 3    # a = pc, b = data address
_E_BR = 4       # a = pc           (predictor-trained branch, not taken)
_E_BR_T = 5     # a = pc, b = target (predictor-trained branch, taken)
_E_ORACLE = 6   # a = pc           (oracle-covered branch, not taken)
_E_ORACLE_T = 7  # a = pc, b = target (oracle-covered branch, taken)
_E_JAL_LINK = 8  # a = pc, b = target (call: RAS push + BTB install)
_E_JALR_RET = 9  # a = pc, b = target (return: RAS pop + BTB install)
_E_JUMP = 10    # a = pc, b = target (other jump: BTB install)
_E_CFD_T = 11   # a = pc, b = target (taken CFD control: BTB install)

#: Serialized portable-trace format version; bump whenever the event
#: stream semantics or the boundary layout change — foreign versions are
#: rejected on load (and quarantined by the trace store).
TRACE_SCHEMA_VERSION = 1

#: Default instruction stride between boundary records.  Derivation of a
#: mark inside a window re-executes at most one stride functionally, so
#: the stride trades artifact size against worst-case materialize cost.
DEFAULT_TRACE_STRIDE = 4096

_TRACE_MAGIC = b"RWTC"


class TraceFormatError(ValueError):
    """A serialized warm trace is damaged, truncated or foreign."""


class TraceCompatibilityError(ValueError):
    """A warm trace does not cover the requested pipeline or budget."""


def warm_fingerprint(config):
    """Identity of everything that shapes the warm event stream.

    The recorded stream is a pure function of (program, input, budget)
    *and* of the config fields that reach the functional machine or the
    per-PC event-kind table: the architectural CFD queue geometry
    (``bq/vq/tq`` sizes, TQ bits), the L1I line size (I-cache block
    events), and the direction-oracle coverage (oracle-covered branches
    record ``_E_ORACLE*`` instead of ``_E_BR*``).  Timing-only knobs —
    widths, ROB/IQ/LQ/SQ sizes, latencies, checkpoint policy — are
    deliberately absent: configs differing only in those share one
    trace, which is what the sweep scheduler exploits.
    """
    return (
        "warm/v%d:bq=%d:vq=%d:tq=%d:tqbits=%d:l1i=%d:oracle=%s:pcs=%s"
        % (
            TRACE_SCHEMA_VERSION,
            config.bq_size, config.vq_size, config.tq_size, config.tq_bits,
            config.memory.l1i.line_bytes,
            int(config.predictor == "perfect"),
            ",".join(str(pc) for pc in sorted(config.perfect_pcs)),
        )
    )


def warm_advance(pipeline, max_instructions):
    """Advance *pipeline*'s committed state by up to *max_instructions*.

    Returns the number of instructions actually advanced (short on
    halt).  The caller must have drained the pipeline first
    (:meth:`~repro.core.pipeline.Pipeline.drain_to_committed`); on
    return the fetch unit is re-pointed at the new committed PC.
    """
    if max_instructions <= 0:
        return 0
    checker = pipeline.checker
    state = checker.state
    if state.halted:
        return 0
    decoded = pipeline._decoded
    predictor = pipeline.predictor
    confidence = pipeline.confidence
    btb = pipeline.btb
    ras = pipeline.ras
    memory = pipeline.memory
    oracle = pipeline.oracle
    oracle_all = pipeline.oracle_all
    perfect_pcs = pipeline.config.perfect_pcs
    line_bytes = pipeline._l1i_line_bytes
    step = checker.step
    access_inst = memory.access_inst
    access_data = memory.access_data
    prev_block = None
    advanced = 0
    while advanced < max_instructions:
        pc = state.pc
        record = step()
        if record is None:
            break
        advanced += 1
        addr = CODE_BASE + pc * 4
        block = addr // line_bytes
        if block != prev_block:
            access_inst(addr)
            prev_block = block
        entry = decoded[pc]
        opclass = entry[_D_OPCLASS]
        if opclass is _ALU:
            continue
        if opclass is _LOAD:
            # Includes PREFETCH: both walk the data hierarchy as reads.
            access_data(record.mem_addr, is_write=False, pc=pc)
        elif opclass is _STORE:
            access_data(record.mem_addr, is_write=True, pc=pc)
        elif opclass is _BRANCH:
            taken = bool(record.taken)
            if oracle is not None and (oracle_all or pc in perfect_pcs):
                predicted = oracle.predict(pc)
                predictor.speculative_update(pc, taken)
            else:
                predicted = predictor.train(pc, taken)
            confidence.update(pc, predicted == taken)
            if taken:
                btb.install(pc, record.target)
                prev_block = None
        elif opclass is _JUMP:
            inst = entry[_D_INST]
            opcode = entry[_D_OPCODE]
            if opcode is _OP_JAL and inst.rd == LINK_REG:
                ras.push(pc + 1)
            elif opcode is _OP_JALR:
                if inst.rs1 == LINK_REG and inst.rd == ZERO_REG:
                    ras.pop()
            btb.install(pc, record.target)
            prev_block = None
        elif (
            opclass is _BQ_BRANCH
            or opclass is _TCR_BRANCH
            or opclass is _TQ_POP_BOV
        ):
            # Fetch-resolved CFD control: no predictor training, but a
            # taken transfer still lands in the BTB (misfetch install).
            if record.taken:
                btb.install(pc, record.target)
                prev_block = None
    pipeline.resync_committed_state()
    if advanced and pipeline.obs is not None:
        pipeline.obs.on_warm_skip(pipeline, advanced)
    return advanced


class WarmTrace:
    """Committed-path warm events recorded by one functional pre-scan.

    ``kinds``/``a``/``b`` are parallel event lists (see the ``_E_*``
    constants); ``offsets`` maps a requested instruction position to the
    event-list offset reached there, and ``snapshots`` maps a position
    to a deep :class:`~repro.arch.state.ArchState` copy taken there.
    ``total`` is the dynamic instruction count actually executed (short
    of the limit on halt).
    """

    __slots__ = ("kinds", "a", "b", "offsets", "snapshots", "total",
                 "halted")

    def __init__(self, kinds, a, b, offsets, snapshots, total, halted):
        self.kinds = kinds
        self.a = a
        self.b = b
        self.offsets = offsets
        self.snapshots = snapshots
        self.total = total
        self.halted = halted


def _static_event_kinds(pipeline):
    """Per-PC warm-event kind table (0 = no event beyond I-cache)."""
    kinds = []
    oracle = pipeline.oracle
    oracle_all = pipeline.oracle_all
    perfect_pcs = pipeline.config.perfect_pcs
    for pc, entry in enumerate(pipeline._decoded):
        opclass = entry[_D_OPCLASS]
        if opclass is _LOAD:
            kind = _E_LOAD
        elif opclass is _STORE:
            kind = _E_STORE
        elif opclass is _BRANCH:
            if oracle is not None and (oracle_all or pc in perfect_pcs):
                kind = _E_ORACLE
            else:
                kind = _E_BR
        elif opclass is _JUMP:
            inst = entry[_D_INST]
            opcode = entry[_D_OPCODE]
            if opcode is _OP_JAL and inst.rd == LINK_REG:
                kind = _E_JAL_LINK
            elif (
                opcode is _OP_JALR
                and inst.rs1 == LINK_REG
                and inst.rd == ZERO_REG
            ):
                kind = _E_JALR_RET
            else:
                kind = _E_JUMP
        elif (
            opclass is _BQ_BRANCH
            or opclass is _TCR_BRANCH
            or opclass is _TQ_POP_BOV
        ):
            kind = _E_CFD_T
        else:
            kind = 0
        kinds.append(kind)
    return kinds


class _TrackingMemory(Memory):
    """A :class:`Memory` that remembers which words a window wrote.

    The recorder drains ``dirty`` at every stride boundary into the
    boundary's memory delta; replaying the deltas in order reproduces
    the exact memory image at any boundary.  All executor store paths
    (``sw``/``sb`` and the CFD queue-save ops) funnel through
    ``store_word``/``store_byte``, so the dirty set is complete.
    """

    __slots__ = ("dirty",)

    def __init__(self, image=None):
        self.dirty = set()
        Memory.__init__(self, image)

    def store_word(self, addr, value):
        Memory.store_word(self, addr, value)
        self.dirty.add(addr)

    def store_byte(self, addr, value):
        Memory.store_byte(self, addr, value)
        self.dirty.add(addr & ~3)


#: One stride boundary: everything needed to restart a functional scan
#: at ``position`` — the event offset reached, the recorder's I-cache
#: block register, and the architectural-state delta (full registers and
#: queue images — they are small — plus the memory words written since
#: the previous boundary).
_Boundary = namedtuple(
    "_Boundary",
    "position offset prev_block pc tcr halted regs bq vq tq mem_delta",
)


class _Halted(Exception):
    """A warm handler was asked to execute past a ``halt`` or outside the
    code segment, where
    :meth:`~repro.arch.executor.FunctionalExecutor.step` returns ``None``."""


def _warm_exit(kind, args):
    """The warm recorder's exit protocol for
    :func:`~repro.arch.executor.compile_handlers`.

    An exit appends the instruction's warm event, if it has one, and
    returns the handler of the next instruction: a taken transfer
    records ``(taken_kind, pc, dest)`` and continues in the ``jump``
    table, a not-taken branch records ``(fall_kind, pc, 0)`` unless
    ``fall_kind`` is 0 (CFD control), and a memory access
    ``(kind, pc, addr)``.  ``halt`` continues at ``seq[n]``, which stops
    the scan.
    """
    if kind == "halt":
        return ["return seq[n]"]
    taken, dest, addr, _value = args
    if taken == "True":
        if dest == "target":
            following = "jump[slot]"
        else:  # register-indirect: range-checked like step()'s fetch
            following = "jump[%s if 0 <= %s < n else n]" % (dest, dest)
        return ["k_append(taken_kind)", "a_append(pc)",
                "b_append(%s)" % dest, "return " + following]
    if taken == "False":
        return ["if fall_kind:", "    k_append(fall_kind)",
                "    a_append(pc)", "    b_append(0)", "return seq[next_pc]"]
    if addr != "None":
        return ["k_append(kind)", "a_append(pc)", "b_append(%s)" % addr,
                "return seq[next_pc]"]
    return ["return seq[next_pc]"]


_WARM_PARAMS = ("k_append", "a_append", "b_append", "fetch", "kind",
                "taken_kind", "fall_kind", "seq", "jump", "slot", "n")


@functools.cache
def _warm_makers():
    """``(make, make_fetching)``: warm handler factories without and with
    the I-cache block event first, compiled once per process."""
    return (
        compile_handlers(_warm_exit, _WARM_PARAMS),
        compile_handlers(_warm_exit, _WARM_PARAMS, prologue=[
            "k_append(%d)" % _E_ICACHE, "a_append(fetch)", "b_append(0)"]),
    )


def _stop():
    """A handler for where no instruction executes.  Like ``step()``
    there, it halts the machine."""

    def handler(state):
        state.halted = True
        raise _Halted

    return handler


class _WarmHandlers:
    """Per-PC handlers that execute an instruction and append its warm
    events in one call.

    ``handler(state)`` executes its PC's instruction on *state*, appends
    the events :func:`warm_advance` would apply for it to *events*, a
    ``(kinds, a, b)`` triple of lists, and returns the next instruction's
    handler.  Each PC has two, because its I-cache block event depends
    on how it was reached: ``seq[pc]`` follows a fall-through and fetches
    only at a block's first PC, ``jump[pc]`` follows a taken transfer
    (which resets the block register) or a scan's start and always
    fetches.  Index ``n`` of both tables is where no instruction
    executes: its handler raises :class:`_Halted`.

    A handler holds its tables, so the handlers form reference cycles
    with them; use the object in a ``with`` block, whose exit clears the
    tables so the handlers and the lists they append to are freed at
    once rather than at the next full garbage collection.
    """

    def __init__(self, pipeline, events, block_shift):
        make, make_fetching = _warm_makers()
        code = pipeline.program.code
        n = len(code)
        block_mask = (1 << block_shift) - 1
        seq = [None] * n + [_stop()]
        jump = [None] * n + [_stop()]
        static_kinds = _static_event_kinds(pipeline)
        appends = [events_list.append for events_list in events]
        for pc, inst in enumerate(code):
            kind = static_kinds[pc]
            if kind == _E_BR or kind == _E_ORACLE:
                taken_kind, fall_kind = kind + 1, kind
            else:
                taken_kind, fall_kind = kind, 0
            target = inst.target
            slot = target if target is not None and 0 <= target < n else n
            args = (*appends, CODE_BASE + pc * 4, kind, taken_kind,
                    fall_kind, seq, jump, slot, n)
            jump[pc] = make_fetching(pc, inst, *args)
            seq[pc] = (make if pc & block_mask else make_fetching)(
                pc, inst, *args)
        self.block_shift = block_shift
        self.seq = seq
        self.jump = jump
        self._after_jump = set(jump)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.seq.clear()
        self.jump.clear()
        self._after_jump.clear()

    def start(self, state, prev_block):
        """The handler for *state*'s next instruction when the I-cache
        block register holds *prev_block* (-1: reset)."""
        table = self.jump if prev_block == -1 else self.seq
        pc = state.pc
        if state.halted or not 0 <= pc < len(table) - 1:
            return table[-1]
        return table[pc]

    def prev_block(self, handler, state):
        """The I-cache block register when *handler* runs next: reset
        after a taken transfer, else the block of the instruction before
        ``state.pc``."""
        if handler in self._after_jump:
            return -1
        return (state.pc - 1) >> self.block_shift


class _TraceRecorder:
    """Recording state of one pre-scan: event lists and stride boundaries.

    The scan appends the warm events to ``kinds``/``a``/``b`` and calls
    :meth:`capture` every ``stride`` instructions; :meth:`finish` seals
    the result into a :class:`PortableWarmTrace`.
    """

    def __init__(self, pipeline, state, stride=DEFAULT_TRACE_STRIDE):
        if stride <= 0:
            raise ValueError("trace stride must be positive")
        self.state = state
        self.stride = stride
        line_bytes = pipeline._l1i_line_bytes
        # CODE_BASE is line-aligned, so the block index is a pure shift.
        self.block_shift = (line_bytes // 4).bit_length() - 1
        self.fingerprint = warm_fingerprint(pipeline.config)
        self.tq_bits = pipeline.config.tq_bits
        self.kinds = []
        self.a = []
        self.b = []
        self.boundaries = []
        state.memory.dirty.clear()  # the program image is not a delta
        self.capture(0, -1)

    def capture(self, count, prev_block):
        """Record the boundary after *count* instructions, with the
        recorder's I-cache block register at *prev_block*."""
        state = self.state
        memory = state.memory
        load = memory.load_word
        delta = {addr: load(addr) for addr in memory.dirty}
        memory.dirty.clear()
        bq, vq, tq = state.bq, state.vq, state.tq
        bits = self.tq_bits
        self.boundaries.append(_Boundary(
            count, len(self.kinds), prev_block, state.pc,
            state.tcr, state.halted, tuple(state.regs),
            (tuple(bq._entries), bq.total_pushes, bq.total_pops, bq._mark),
            (tuple(vq._entries), vq.total_pushes, vq.total_pops),
            (
                tuple((ov << bits) | trips for trips, ov in tq._entries),
                tq.total_pushes, tq.total_pops,
            ),
            delta,
        ))

    def finish(self, count, prev_block, machine_halted):
        """Seal a recording of *count* instructions; returns the
        :class:`PortableWarmTrace`.

        The last boundary reads the machine's final ``halted``: a scan
        that runs off the code on the fetch after a stride boundary
        captured that boundary before the failed fetch halted it."""
        last = self.boundaries[-1]
        if last.position != count:
            self.capture(count, prev_block)
        elif last.halted != self.state.halted:
            self.boundaries[-1] = last._replace(halted=self.state.halted)
        return PortableWarmTrace(
            self.fingerprint, self.stride, self.block_shift, self.tq_bits,
            self.kinds, self.a, self.b, count, bool(machine_halted),
            self.boundaries,
        )


def _recording_state(pipeline):
    """A throwaway functional state with write tracking installed."""
    config = pipeline.config
    state = ArchState(
        bq_size=config.bq_size,
        vq_size=config.vq_size,
        tq_size=config.tq_size,
        tq_bits=config.tq_bits,
    )
    state.memory = _TrackingMemory()
    state.load_program(pipeline.program)
    return state


def record_portable_trace(pipeline, limit, stride=DEFAULT_TRACE_STRIDE):
    """One functional pre-scan of up to *limit* instructions.

    Executes the program on a throwaway state (the pipeline is
    untouched) and returns a :class:`PortableWarmTrace`: the complete
    warm-event stream plus stride-boundary scaffolding from which event
    offsets and architectural snapshots are derivable at any position.
    Each instruction is one :class:`_WarmHandlers` call, which executes
    it and appends its events.
    """
    state = _recording_state(pipeline)
    recorder = _TraceRecorder(pipeline, state, stride)
    events = (recorder.kinds, recorder.a, recorder.b)
    with _WarmHandlers(pipeline, events, recorder.block_shift) as handlers:
        handler = handlers.start(state, -1)
        count = 0
        machine_halted = False
        try:
            while count < limit:
                end = min(limit, count - count % stride + stride)
                for _position in range(count, end):
                    handler = handler(state)
                count = end
                if count % stride == 0:
                    recorder.capture(
                        count, handlers.prev_block(handler, state))
        except _Halted:
            # _position is the instruction that could not execute.
            count = _position
            machine_halted = True
        return recorder.finish(
            count, handlers.prev_block(handler, state), machine_halted)


class PortableWarmTrace:
    """A plan-independent, config-portable warm pre-scan.

    Holds the parallel event stream (``kinds``/``a``/``b``), the true
    dynamic length (``total``, short of the recording budget on halt),
    and the stride ``boundaries``.  :meth:`materialize` derives a
    :class:`WarmTrace` for any requested positions; :meth:`to_bytes` /
    :meth:`from_bytes` serialize losslessly for the on-disk store.
    """

    __slots__ = ("fingerprint", "stride", "block_shift", "tq_bits",
                 "kinds", "a", "b", "total", "halted", "boundaries")

    def __init__(self, fingerprint, stride, block_shift, tq_bits,
                 kinds, a, b, total, halted, boundaries):
        self.fingerprint = fingerprint
        self.stride = stride
        self.block_shift = block_shift
        self.tq_bits = tq_bits
        self.kinds = kinds
        self.a = a
        self.b = b
        self.total = total
        self.halted = halted
        self.boundaries = boundaries

    # ------------------------------------------------------ coverage

    def clip(self, limit):
        """``(total, halted)`` as a budget-*limit* recording would report.

        Raises :class:`TraceCompatibilityError` when the trace cannot
        cover *limit* (recorded budget exhausted before *limit* without
        a halt).
        """
        if limit < self.total:
            return limit, False
        if limit == self.total:
            return self.total, False
        if not self.halted:
            raise TraceCompatibilityError(
                "trace covers %d instructions (budget exhausted); "
                "cannot serve a %d-instruction request"
                % (self.total, limit)
            )
        return self.total, True

    # -------------------------------------------------- materialization

    def _restart_state(self, boundary, memory, config):
        state = ArchState()
        state.regs = list(boundary.regs)
        state.memory = memory
        bq = BranchQueue(config.bq_size)
        bq._entries = deque(boundary.bq[0])
        bq.total_pushes, bq.total_pops, bq._mark = boundary.bq[1:]
        vq = ValueQueue(config.vq_size)
        vq._entries = deque(boundary.vq[0])
        vq.total_pushes, vq.total_pops = boundary.vq[1:]
        tq = TripCountQueue(config.tq_size, config.tq_bits)
        mask = tq.max_count
        bits = config.tq_bits
        tq._entries = deque(
            (word & mask, (word >> bits) & 1) for word in boundary.tq[0]
        )
        tq.total_pushes, tq.total_pops = boundary.tq[1:]
        state.bq, state.vq, state.tq = bq, vq, tq
        state.tcr = boundary.tcr
        state.pc = boundary.pc
        state.halted = boundary.halted
        return state

    @staticmethod
    def _advance(handler, state, count):
        """Re-execute *count* instructions from *handler* on; returns the
        next instruction's handler."""
        try:
            for _ in range(count):
                handler = handler(state)
        except _Halted:
            raise TraceFormatError(
                "functional re-execution halted before a recorded "
                "boundary — trace scaffolding is inconsistent"
            ) from None
        return handler

    def materialize(self, pipeline, limit, positions=(),
                    snapshot_positions=()):
        """Derive a :class:`WarmTrace` for *pipeline* at the requested
        positions — including positions that were never marked at record
        time.

        For each position the nearest preceding stride boundary's state
        is reconstructed (registers/queues from the boundary image,
        memory by folding the delta chain) and at most one stride is
        functionally re-executed to the exact mark, counting events the
        way the recorder did; marks are visited in one forward pass, so
        overlapping windows are never re-executed.  Positions past the
        (clipped) dynamic length are silently absent, matching the
        original single-pass recorder's contract.
        """
        fingerprint = warm_fingerprint(pipeline.config)
        if fingerprint != self.fingerprint:
            raise TraceCompatibilityError(
                "trace was recorded under %r but the pipeline needs %r"
                % (self.fingerprint, fingerprint)
            )
        total, halted = self.clip(limit)
        snap_set = set(snapshot_positions)
        marks = sorted(
            p for p in (set(positions) | snap_set) if 0 <= p <= total
        )
        offsets = {}
        snapshots = {}
        if marks:
            program = pipeline.program
            config = pipeline.config
            boundaries = self.boundaries
            boundary_positions = [b.position for b in boundaries]
            # The program's image, copied as one array.
            base_memory = program.data.copy()
            applied = 0  # boundaries whose memory delta is folded in
            handler = None
            state = None
            pos = -1
            offset = 0
            # The re-execution counts events by appending them here.
            scratch = ([], [], [])
            with _WarmHandlers(pipeline, scratch,
                               self.block_shift) as handlers:
                for mark in marks:
                    floor = bisect_right(boundary_positions, mark) - 1
                    if handler is None or boundaries[floor].position > pos:
                        # Jump: fold deltas up to the floor boundary and
                        # restart the functional machine there.  The working
                        # memory is handed to the machine WITHOUT a copy:
                        # mid-stride writes it makes are overwritten by the
                        # next fold anyway, because each boundary delta
                        # stores the absolute final value of every address
                        # written in its stride.
                        while applied <= floor:
                            base_memory.load_image(
                                boundaries[applied].mem_delta)
                            applied += 1
                        boundary = boundaries[floor]
                        state = self._restart_state(
                            boundary, base_memory, config)
                        handler = handlers.start(state, boundary.prev_block)
                        pos = boundary.position
                        offset = boundary.offset
                    if mark > pos:
                        handler = self._advance(handler, state, mark - pos)
                        offset += len(scratch[0])
                        for events in scratch:
                            events.clear()
                        pos = mark
                    offsets[mark] = offset
                    if mark in snap_set:
                        snapshots[mark] = state.snapshot()
        return WarmTrace(
            self.kinds, self.a, self.b, offsets, snapshots, total, halted
        )

    # ------------------------------------------------------ serialization

    def to_bytes(self):
        """Serialize to the versioned, CRC-protected binary format."""
        body = bytearray()
        body += array("B", self.kinds).tobytes()
        body += array("I", self.a).tobytes()
        body += array("I", self.b).tobytes()
        for boundary in self.boundaries:
            body += _pack_boundary(boundary)
        header = struct.pack(
            "<4sIIIIQBxxxQII",
            _TRACE_MAGIC, TRACE_SCHEMA_VERSION, self.stride,
            self.block_shift, self.tq_bits, self.total,
            1 if self.halted else 0, len(self.kinds),
            len(self.boundaries), len(self.fingerprint.encode()),
        )
        fp = self.fingerprint.encode()
        return header + fp + struct.pack("<I", zlib.crc32(bytes(body))) + body

    @classmethod
    def from_bytes(cls, raw):
        """Deserialize; raises :class:`TraceFormatError` on any damage.

        *raw* may be any buffer — a ``bytes`` read or an ``mmap``.  All
        views into it are released before returning or raising, so an
        mmap-backed caller can always close its map (a view trapped in
        an exception traceback would otherwise pin the buffer open).
        """
        view = memoryview(raw)
        body = None
        try:
            head_size = struct.calcsize("<4sIIIIQBxxxQII")
            if len(view) < head_size:
                raise TraceFormatError("trace file shorter than its header")
            (magic, version, stride, block_shift, tq_bits, total, halted,
             n_events, n_boundaries, fp_len) = struct.unpack_from(
                "<4sIIIIQBxxxQII", view, 0
            )
            if magic != _TRACE_MAGIC:
                raise TraceFormatError("bad trace magic %r" % (bytes(magic),))
            if version != TRACE_SCHEMA_VERSION:
                raise TraceFormatError(
                    "trace schema v%d is not the supported v%d"
                    % (version, TRACE_SCHEMA_VERSION)
                )
            cursor = head_size
            try:
                fingerprint = bytes(view[cursor:cursor + fp_len]).decode()
                cursor += fp_len
                (crc,) = struct.unpack_from("<I", view, cursor)
                cursor += 4
                body = view[cursor:]
                if zlib.crc32(bytes(body)) != crc:
                    raise TraceFormatError("trace body CRC mismatch")
                kinds = array("B")
                kinds.frombytes(body[:n_events])
                at = n_events
                a = array("I")
                a.frombytes(body[at:at + 4 * n_events])
                at += 4 * n_events
                b = array("I")
                b.frombytes(body[at:at + 4 * n_events])
                at += 4 * n_events
                boundaries = []
                for _ in range(n_boundaries):
                    boundary, at = _unpack_boundary(body, at)
                    boundaries.append(boundary)
            except (struct.error, ValueError) as exc:
                if isinstance(exc, TraceFormatError):
                    raise
                raise TraceFormatError(
                    "truncated trace body: %s" % exc) from exc
            if (len(kinds) != n_events or len(a) != n_events
                    or len(b) != n_events):
                raise TraceFormatError("trace event arrays are truncated")
            if not boundaries:
                raise TraceFormatError("trace holds no boundaries")
        finally:
            if body is not None:
                body.release()
            view.release()
        return cls(
            fingerprint, stride, block_shift, tq_bits, kinds, a, b,
            total, bool(halted), boundaries,
        )


def _pack_boundary(boundary):
    out = bytearray()
    out += struct.pack(
        "<QQqQQB3x", boundary.position, boundary.offset,
        boundary.prev_block, boundary.pc, boundary.tcr,
        1 if boundary.halted else 0,
    )
    out += array("I", boundary.regs).tobytes()
    bq_entries, bq_pushes, bq_pops, bq_mark = boundary.bq
    out += struct.pack(
        "<QQqI", bq_pushes, bq_pops,
        -1 if bq_mark is None else bq_mark, len(bq_entries),
    )
    out += array("B", bq_entries).tobytes()
    vq_entries, vq_pushes, vq_pops = boundary.vq
    out += struct.pack("<QQI", vq_pushes, vq_pops, len(vq_entries))
    out += array("I", vq_entries).tobytes()
    tq_entries, tq_pushes, tq_pops = boundary.tq
    out += struct.pack("<QQI", tq_pushes, tq_pops, len(tq_entries))
    out += array("I", tq_entries).tobytes()
    delta = boundary.mem_delta
    out += struct.pack("<I", len(delta))
    flat = array("I")
    for addr in sorted(delta):
        flat.append(addr)
        flat.append(delta[addr])
    out += flat.tobytes()
    return bytes(out)


def _unpack_boundary(view, at):
    (position, offset, prev_block, pc, tcr, halted) = struct.unpack_from(
        "<QQqQQB3x", view, at
    )
    at += struct.calcsize("<QQqQQB3x")
    regs = array("I")
    regs.frombytes(view[at:at + 4 * 32])
    if len(regs) != 32:
        raise TraceFormatError("truncated boundary register image")
    at += 4 * 32
    bq_pushes, bq_pops, bq_mark, n = struct.unpack_from("<QQqI", view, at)
    at += struct.calcsize("<QQqI")
    bq_entries = array("B")
    bq_entries.frombytes(view[at:at + n])
    at += n
    bq = (tuple(bq_entries), bq_pushes, bq_pops,
          None if bq_mark < 0 else bq_mark)
    vq_pushes, vq_pops, n = struct.unpack_from("<QQI", view, at)
    at += struct.calcsize("<QQI")
    vq_entries = array("I")
    vq_entries.frombytes(view[at:at + 4 * n])
    at += 4 * n
    vq = (tuple(vq_entries), vq_pushes, vq_pops)
    tq_pushes, tq_pops, n = struct.unpack_from("<QQI", view, at)
    at += struct.calcsize("<QQI")
    tq_entries = array("I")
    tq_entries.frombytes(view[at:at + 4 * n])
    at += 4 * n
    tq = (tuple(tq_entries), tq_pushes, tq_pops)
    (n,) = struct.unpack_from("<I", view, at)
    at += 4
    flat = array("I")
    flat.frombytes(view[at:at + 8 * n])
    at += 8 * n
    delta = dict(zip(flat[0::2], flat[1::2]))
    if len(delta) != n:
        raise TraceFormatError("truncated boundary memory delta")
    return _Boundary(
        position, offset, prev_block, pc, tcr, bool(halted),
        tuple(regs), bq, vq, tq, delta,
    ), at


def replay_warm_events(pipeline, trace, start, end):
    """Apply recorded warm events ``[start, end)`` to *pipeline*'s warm
    state (predictors, confidence, BTB, RAS, caches, oracle cursors).

    This is the fast half of a warm gap: the architectural state does
    not advance here — the caller teleports the checker to the matching
    pre-scan snapshot afterwards (:meth:`Pipeline.restore_committed_state`).
    The training side effects are exactly those of :func:`warm_advance`
    over the same instructions.
    """
    kinds = trace.kinds
    a_list = trace.a
    b_list = trace.b
    predictor = pipeline.predictor
    confidence = pipeline.confidence
    btb = pipeline.btb
    ras = pipeline.ras
    memory = pipeline.memory
    oracle = pipeline.oracle
    train = predictor.train
    spec_update = predictor.speculative_update
    conf_update = confidence.update
    install = btb.install
    access_data = memory.access_data
    access_inst = memory.access_inst
    oracle_predict = oracle.predict if oracle is not None else None
    i = start
    while i < end:
        kind = kinds[i]
        if kind == _E_ICACHE:
            access_inst(a_list[i])
        elif kind == _E_LOAD:
            access_data(b_list[i], False, a_list[i])
        elif kind == _E_STORE:
            access_data(b_list[i], True, a_list[i])
        elif kind == _E_BR:
            pc = a_list[i]
            predicted = train(pc, False)
            conf_update(pc, not predicted)
        elif kind == _E_BR_T:
            pc = a_list[i]
            predicted = train(pc, True)
            conf_update(pc, predicted)
            install(pc, b_list[i])
        elif kind == _E_ORACLE:
            pc = a_list[i]
            predicted = oracle_predict(pc)
            spec_update(pc, False)
            conf_update(pc, not predicted)
        elif kind == _E_ORACLE_T:
            pc = a_list[i]
            predicted = oracle_predict(pc)
            spec_update(pc, True)
            conf_update(pc, predicted)
            install(pc, b_list[i])
        elif kind == _E_CFD_T or kind == _E_JUMP:
            install(a_list[i], b_list[i])
        elif kind == _E_JAL_LINK:
            pc = a_list[i]
            ras.push(pc + 1)
            install(pc, b_list[i])
        else:  # _E_JALR_RET
            ras.pop()
            install(a_list[i], b_list[i])
        i += 1
