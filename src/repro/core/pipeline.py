"""The cycle-level OOO pipeline with CFD hardware.

Execute-at-execute simulation: wrong-path instructions are fetched,
renamed, issued and executed on real (speculative) dataflow values until a
recovery squashes them.  A functional retirement checker replays every
retired instruction and asserts that the OOO datapath produced the same
PC, direction, destination value and store effects — so the simulator is
self-verifying against the architectural oracle.

Stage order within one simulated cycle (oldest work first):
retire -> complete/writeback (branch resolution, recoveries) ->
memory pipeline -> issue -> rename/dispatch -> fetch.
"""

import gc
from collections import deque
from operator import attrgetter

from repro.arch.executor import FunctionalExecutor
from repro.arch.semantics import alu_fn, branch_fn
from repro.arch.state import ArchState
from repro.branch import (
    BranchTargetBuffer,
    JRSConfidenceEstimator,
    ReturnAddressStack,
    make_predictor,
)
from repro.core.cfd_hw import HardwareBQ, HardwareTQ, POP_HIT
from repro.core.checkpoints import CheckpointPool, FrontEndSnapshot
from repro.core.config import BQ_MISS_SPECULATE
from repro.core.lsq import StoreQueueEntry, scan_older_stores
from repro.core.oracle import DirectionOracle
from repro.core.rename import RenameTables, VQRenamer
from repro.core.stats import SimStats
from repro.errors import SimulatorInvariantError
from repro.isa.instructions import LINK_REG, NUM_GPRS, ZERO_REG
from repro.isa.opcodes import OpClass, Opcode
from repro.memsys.hierarchy import MemLevel, MemoryHierarchy
from repro.memsys.mshr import MSHRFile
from repro.obs.events import MultiObserver
from repro.obs.metrics import register_stats_dict

#: Instruction-space base address (keeps code blocks apart from data in L2/L3).
CODE_BASE = 0x40000000

_ALU_CLASSES = frozenset(
    {
        OpClass.ALU,
        OpClass.BRANCH,
        OpClass.BQ_PUSH,
        OpClass.TQ_PUSH,
        OpClass.VQ_PUSH,
        OpClass.VQ_POP,
        OpClass.JUMP,  # only JALR reaches the IQ
    }
)

#: Opclasses fully resolved in the front end: they never enter the issue
#: queue and are marked done at rename.  This is the paper's key property —
#: Branch_on_BQ, Branch_on_TCR and the TQ pops "execute in the fetch stage".
_FETCH_RESOLVED = frozenset(
    {
        OpClass.BQ_BRANCH,
        OpClass.TCR_BRANCH,
        OpClass.TQ_POP,
        OpClass.TQ_POP_BOV,
        OpClass.BQ_MARK,
        OpClass.BQ_FORWARD,
        OpClass.NOP,
        OpClass.HALT,
    }
)


class SimulationError(SimulatorInvariantError):
    """Internal simulator invariant violation (checker mismatch, deadlock).

    A subclass of :class:`~repro.errors.SimulatorInvariantError` so the
    reliability layer (and the CLI's exit-code mapping) can catch every
    invariant violation — from this built-in checker or from the opt-in
    :class:`repro.rel.InvariantChecker` — with one ``except``.
    """


#: Per-PC predecode record layout (see :meth:`Pipeline._predecode`).
#: Tuple indices, kept in one place so the stage code reads like field
#: access: ``d[_D_OPCLASS]`` etc.
_D_INST = 0
_D_OPCLASS = 1
_D_OPCODE = 2
_D_SRC_ARCH = 3
_D_DEST_ARCH = 4
_D_NEEDS_IQ = 5
_D_IS_LOAD = 6
_D_IS_STORE = 7
_D_IS_BYTE = 8
_D_LATENCY = 9
_D_IS_PREFETCH = 10
_D_FETCH_SIMPLE = 11
_D_RETIRE_SIMPLE = 12
_D_ALU_FN = 13
_D_BR_FN = 14

#: Opclasses the fetch stage has dedicated handling for (CFD queue ops,
#: control transfers, serializers).  Everything else takes the lean fetch
#: path: create the uop and advance the PC.
_FETCH_SPECIAL = frozenset({
    OpClass.BQ_PUSH, OpClass.BQ_BRANCH, OpClass.BQ_MARK, OpClass.BQ_FORWARD,
    OpClass.TQ_PUSH, OpClass.TQ_POP, OpClass.TQ_POP_BOV, OpClass.TCR_BRANCH,
    OpClass.BRANCH, OpClass.JUMP, OpClass.HALT,
    OpClass.QSAVE, OpClass.QRESTORE,
})

#: Opclasses whose retirement touches a structure beyond the ROB/PRF
#: (queues, predictors, branch bookkeeping).  Plain ALU/MUL/DIV/NOP ops
#: skip the whole dispatch chain in ``_retire_one``.
_RETIRE_SPECIAL = frozenset({
    OpClass.LOAD, OpClass.STORE,
    OpClass.BQ_PUSH, OpClass.BQ_BRANCH, OpClass.BQ_MARK, OpClass.BQ_FORWARD,
    OpClass.TQ_PUSH, OpClass.TQ_POP, OpClass.TQ_POP_BOV, OpClass.TCR_BRANCH,
    OpClass.VQ_PUSH, OpClass.VQ_POP,
    OpClass.BRANCH, OpClass.JUMP, OpClass.HALT,
    OpClass.QSAVE, OpClass.QRESTORE,
})


class Uop:
    """One in-flight instruction.

    Every field except the five identity ones defaults at class level:
    reads fall through to the class attribute until a stage writes the
    instance's own value.  (All defaults are immutable, so sharing is
    safe.)  Constructing a uop therefore writes 5 attributes, not ~45 —
    fetch creates one of these per slot per cycle, wrong path included,
    which made ``__init__`` one of the hottest functions in the
    simulator.
    """

    phys_rd = None
    old_phys_rd = None
    arch_rd = None
    src_phys = ()
    in_iq = False
    issued = False
    done = False
    squashed = False
    serializing = False
    serialize_start = None
    is_ctrl = False
    conditional = False
    predicted_taken = False
    predicted_target = None
    pred_meta = None
    actual_taken = None
    actual_target = None
    mispredicted = False
    uses_predictor = False
    oracle_used = False
    conf_confident = True
    ckpt_id = None
    fe_snap = None
    bq_ptr = None
    bq_spec = False
    bq_pred = None
    tq_ptr = None
    popped_count = None
    popped_ovf = None
    is_load = False
    is_store = False
    is_byte = False
    addr = None
    addr_known = False
    mem_level = MemLevel.NONE
    value = None
    level = MemLevel.NONE
    vq_source_phys = None
    vq_dangling = False
    needs_retire_redirect = False
    redirect_pc = None

    def __init__(self, seq, pc, inst, cycle, opclass=None):
        self.seq = seq
        self.pc = pc
        self.inst = inst
        self.opclass = inst.info.opclass if opclass is None else opclass
        self.fetched_cycle = cycle


class Pipeline:
    """The OOO core."""

    def __init__(self, program, config, region_pcs=None):
        config.validate()
        self.program = program
        self.config = config
        self.stats = SimStats()
        # Per-PC predecode: everything fetch/rename/issue would otherwise
        # re-derive from ``inst.info`` on every dynamic instance of a PC.
        self._decoded = self._predecode(program)
        self._l1i_line_bytes = config.memory.l1i.line_bytes

        # Architectural checker (also the committed state).
        self.checker = FunctionalExecutor(
            program,
            ArchState(
                program,
                bq_size=config.bq_size,
                vq_size=config.vq_size,
                tq_size=config.tq_size,
                tq_bits=config.tq_bits,
            ),
        )

        # Front end
        self.predictor = make_predictor(config.predictor, **config.predictor_kwargs)
        self.btb = BranchTargetBuffer(config.btb_sets, config.btb_ways)
        self.ras = ReturnAddressStack(config.ras_depth)
        self.confidence = JRSConfidenceEstimator()
        self.oracle = None
        self.oracle_all = config.predictor == "perfect"
        if self.oracle_all or config.perfect_pcs:
            self.oracle = DirectionOracle.build(
                program,
                getattr(config, "_oracle_horizon", 2_000_000),
                state_kwargs={
                    "bq_size": config.bq_size,
                    "vq_size": config.vq_size,
                    "tq_size": config.tq_size,
                    "tq_bits": config.tq_bits,
                },
            )
        self.fetch_pc = program.entry
        self.fetch_halted = False
        self.next_fetch_cycle = 0
        self.fetch_pipe = deque()  # (ready_cycle, uop)
        self.fetch_pipe_cap = config.front_end_depth * config.fetch_width + config.fetch_width
        self.last_inst_block = None

        # CFD hardware
        self.hw_bq = HardwareBQ(config.bq_size)
        self.hw_tq = HardwareTQ(config.tq_size, config.tq_bits)
        self.spec_tcr = 0
        self.committed_tcr = 0

        # Rename / window
        self.rename_tables = RenameTables(config.num_phys_regs)
        self.vq_renamer = VQRenamer(config.vq_size)
        self.prf_value = [0] * config.num_phys_regs
        self.prf_ready = [False] * config.num_phys_regs
        self.prf_level = [MemLevel.NONE] * config.num_phys_regs
        for phys in range(32):
            self.prf_ready[phys] = True
        self.rob = deque()
        self.iq = []
        self.load_queue = []
        self.store_queue = []
        self.waiting_loads = []  # address-known loads awaiting disambiguation
        self.checkpoints = CheckpointPool(
            config.num_checkpoints, config.ooo_checkpoint_reclaim
        )
        self.inflight = {}  # seq -> uop (for BQ late-push validation)
        self.serialize_pending = False
        # Issue-scan skip flag: cleared after a scan that issued nothing,
        # set again by any event that could wake an IQ entry (a register
        # writeback, a new dispatch, a squash, the divider freeing up).
        self._issue_dirty = True

        # Memory
        self.memory = MemoryHierarchy(config.memory)
        self.mshr = MSHRFile(config.memory.mshr_capacity, config.memory.l1d.line_bytes)
        self.pending_fill_level = {}  # block -> MemLevel of in-flight fill

        # Observability: a PipelineObserver, or None (tracing disabled).
        # Every hook site is guarded with ``if obs is not None`` so the
        # disabled path costs one attribute test per stage boundary.
        self.obs = None

        # Execution bookkeeping
        self.completions = {}  # cycle -> [uop]
        self.div_busy_until = 0
        self.cycle = 0
        self._cycle_base = 0  # set at warmup end; stats count cycles past it
        self.seq = 0
        self.sim_done = False
        self.last_retire_cycle = 0
        self.retire_limit = None
        self.region_pcs = region_pcs
        self.warmup_stats = None

    # -------------------------------------------------------------- observers

    def attach_observer(self, observer):
        """Attach a :class:`~repro.obs.events.PipelineObserver`.

        Multiple observers compose through a
        :class:`~repro.obs.events.MultiObserver`.  Returns *observer*.
        """
        if self.obs is None:
            self.obs = observer
        elif isinstance(self.obs, MultiObserver):
            self.obs.add(observer)
        else:
            self.obs = MultiObserver([self.obs, observer])
        return observer

    def detach_observer(self, observer):
        """Detach a previously attached observer (no-op if absent)."""
        if self.obs is observer:
            self.obs = None
        elif isinstance(self.obs, MultiObserver):
            try:
                self.obs.remove(observer)
            except ValueError:
                return
            if len(self.obs.observers) == 1:
                self.obs = self.obs.observers[0]
            elif not self.obs.observers:
                self.obs = None

    def register_metrics(self, registry):
        """Register every component's instruments into *registry*.

        Wires the stats counters, the cache hierarchy, the L1D MSHR file,
        the branch predictor and BTB, and the fetch-unit CFD hardware into
        one :class:`~repro.obs.metrics.MetricsRegistry`.
        """
        self.stats.register_metrics(registry)
        self.memory.register_metrics(registry)
        self.mshr.register_metrics(registry)
        self.predictor.register_metrics(registry)
        register_stats_dict(registry, "branch.btb", self.btb.stats)
        self.hw_bq.register_metrics(registry)
        self.hw_tq.register_metrics(registry)
        registry.gauge(
            "checkpoint.available", fn=lambda: self.checkpoints.available
        )
        return registry

    # ------------------------------------------------------------------ utils

    def _predecode(self, program):
        """Static per-PC decode table, built once per simulation.

        Each record caches what the hot stages (fetch, rename, issue) need
        about the instruction at that PC, so the per-cycle loops do one
        list index instead of chasing ``inst.info`` attributes and
        recomputing source/destination/IQ classification for every dynamic
        instance.  See the ``_D_*`` indices above for the layout.
        """
        decoded = []
        for inst in program.code:
            info = inst.info
            opclass = info.opclass
            opcode = inst.opcode
            sources = []
            if info.reads_rs1 and inst.rs1 is not None:
                sources.append(inst.rs1)
            if info.reads_rs2 and inst.rs2 is not None:
                sources.append(inst.rs2)
            if info.reads_rd and inst.rd is not None:
                sources.append(inst.rd)
            needs_iq = (
                opclass not in _FETCH_RESOLVED
                and not (opclass is OpClass.JUMP and opcode is not Opcode.JALR)
                and opclass is not OpClass.QSAVE
                and opclass is not OpClass.QRESTORE
            )
            decoded.append((
                inst,
                opclass,
                opcode,
                tuple(sources),
                inst.destination_register(),
                needs_iq,
                opclass is OpClass.LOAD and opcode is not Opcode.PREFETCH,
                opclass is OpClass.STORE,
                opcode in (Opcode.LB, Opcode.LBU, Opcode.SB),
                info.latency,
                opcode is Opcode.PREFETCH,
                opclass not in _FETCH_SPECIAL,
                opclass not in _RETIRE_SPECIAL,
                alu_fn(opcode),
                branch_fn(opcode),
            ))
        return decoded

    def _schedule(self, uop, delay):
        completions = self.completions
        when = self.cycle + delay
        bucket = completions.get(when)
        if bucket is None:
            completions[when] = [uop]
        else:
            bucket.append(uop)

    # ------------------------------------------------------------------ fetch

    def _capture_fe_snapshot(self):
        """Pre-update front-end snapshot (predictor/conf/ras/oracle parts)."""
        return FrontEndSnapshot(
            predictor=self.predictor.snapshot(),
            confidence=self.confidence.snapshot(),
            ras=self.ras.snapshot(),
            oracle=self.oracle.snapshot() if self.oracle is not None else None,
        )

    def _finish_fe_snapshot(self, snap):
        """Post-update parts: CFD fetch pointers and speculative TCR."""
        snap.bq = self.hw_bq.snapshot()
        snap.tq = self.hw_tq.snapshot()
        snap.spec_tcr = self.spec_tcr
        return snap

    def _use_oracle_for(self, pc):
        return self.oracle is not None and (
            self.oracle_all or pc in self.config.perfect_pcs
        )

    def stage_fetch(self):
        if self.fetch_halted or self.sim_done:
            return
        stats = self.stats
        cycle = self.cycle
        if cycle < self.next_fetch_cycle:
            stats.fetch_cycles_stalled += 1
            return
        fetch_pipe = self.fetch_pipe
        fetch_pipe_cap = self.fetch_pipe_cap
        if len(fetch_pipe) >= fetch_pipe_cap:
            stats.fetch_cycles_stalled += 1
            return
        config = self.config
        events = stats.events

        # Instruction cache: one block access per new fetch block.
        block = (CODE_BASE + self.fetch_pc * 4) // self._l1i_line_bytes
        if block != self.last_inst_block:
            self.last_inst_block = block
            result = self.memory.access_inst(CODE_BASE + self.fetch_pc * 4)
            events["icache_access"] += 1
            if result.level != MemLevel.L1:
                stats.icache_stall_cycles += result.latency
                self.next_fetch_cycle = cycle + result.latency
                return

        obs = self.obs
        decoded = self._decoded
        ncode = len(decoded)
        hw_bq = self.hw_bq
        hw_tq = self.hw_tq
        ready_cycle = cycle + config.front_end_depth
        fetch_width = config.fetch_width
        seq = self.seq
        fetched = 0
        while fetched < fetch_width:
            pc = self.fetch_pc
            if pc < 0 or pc >= ncode:
                self.fetch_halted = True
                break
            entry = decoded[pc]
            inst = entry[_D_INST]
            opclass = entry[_D_OPCLASS]

            if entry[_D_FETCH_SIMPLE]:
                # Plain ALU/memory/VQ op: touches no front-end structure
                # and is never a taken transfer — the common case.
                uop = Uop(seq, pc, inst, cycle, opclass)
                seq += 1
                fetch_pipe.append((ready_cycle, uop))
                fetched += 1
                if obs is not None:
                    obs.on_fetch(uop, cycle)
                self.fetch_pc = pc + 1
                if len(fetch_pipe) >= fetch_pipe_cap:
                    break
                continue

            next_pc = pc + 1
            taken_transfer = False

            uop = Uop(seq, pc, inst, cycle, opclass)

            if opclass is OpClass.BQ_PUSH:
                if hw_bq.push_would_stall():
                    stats.bq_full_stalls += 1
                    break
                uop.bq_ptr = hw_bq.allocate_push()
                events["bq_access"] += 1
            elif opclass is OpClass.BQ_BRANCH:
                events["bq_access"] += 1
                events["btb_access"] += 1
                kind, pointer, predicate, level = hw_bq.pop_at_fetch()
                if kind == POP_HIT:
                    uop.bq_ptr = pointer
                    uop.bq_pred = predicate
                    uop.is_ctrl = True
                    uop.conditional = True
                    uop.predicted_taken = bool(predicate)
                    uop.predicted_target = inst.target
                    uop.actual_taken = bool(predicate)
                    uop.actual_target = inst.target if predicate else next_pc
                    uop.done = False  # marked done at rename
                    if predicate:
                        taken_transfer = True
                        next_pc = inst.target
                else:
                    if config.bq_miss_policy != BQ_MISS_SPECULATE:
                        stats.bq_stall_cycles += 1
                        break
                    snap = self._capture_fe_snapshot()
                    predicted, meta = self.predictor.predict(pc)
                    events["predictor_access"] += 1
                    uop.conf_confident = self.confidence.is_confident(pc)
                    self.predictor.speculative_update(pc, predicted)
                    self.confidence.speculative_update(predicted)
                    uop.bq_ptr = hw_bq.speculate_pop(predicted, uop.seq)
                    uop.bq_spec = True
                    uop.is_ctrl = True
                    uop.conditional = True
                    uop.uses_predictor = True
                    uop.pred_meta = meta
                    uop.predicted_taken = predicted
                    uop.predicted_target = inst.target
                    uop.fe_snap = self._finish_fe_snapshot(snap)
                    # The validating push may execute while this pop is
                    # still in the fetch pipe, so it must be findable now.
                    self.inflight[uop.seq] = uop
                    if predicted:
                        taken_transfer = True
                        next_pc = inst.target
            elif opclass is OpClass.BQ_MARK:
                hw_bq.mark_at_fetch()
            elif opclass is OpClass.BQ_FORWARD:
                hw_bq.forward_at_fetch()
                events["bq_access"] += 1
            elif opclass is OpClass.TQ_PUSH:
                if hw_tq.push_would_stall():
                    break
                uop.tq_ptr = hw_tq.allocate_push()
                events["tq_access"] += 1
            elif opclass is OpClass.TQ_POP:
                events["tq_access"] += 1
                kind, pointer, count, overflow = hw_tq.pop_at_fetch()
                if kind != POP_HIT:
                    stats.tq_stall_cycles += 1
                    break
                uop.tq_ptr = pointer
                uop.popped_count = count
                uop.popped_ovf = overflow
                self.spec_tcr = 0 if overflow else count
            elif opclass is OpClass.TQ_POP_BOV:
                events["tq_access"] += 1
                events["btb_access"] += 1
                kind, pointer, count, overflow = hw_tq.pop_at_fetch()
                if kind != POP_HIT:
                    stats.tq_stall_cycles += 1
                    break
                uop.tq_ptr = pointer
                uop.popped_count = count
                uop.popped_ovf = overflow
                self.spec_tcr = count
                uop.is_ctrl = True
                uop.actual_taken = bool(overflow)
                uop.actual_target = inst.target if overflow else next_pc
                if overflow:
                    taken_transfer = True
                    next_pc = inst.target
            elif opclass is OpClass.TCR_BRANCH:
                events["btb_access"] += 1
                uop.is_ctrl = True
                taken = self.spec_tcr > 0
                if taken:
                    self.spec_tcr -= 1
                    taken_transfer = True
                    next_pc = inst.target
                uop.actual_taken = taken
                uop.actual_target = inst.target if taken else pc + 1
            elif opclass is OpClass.BRANCH:
                events["btb_access"] += 1
                uop.is_ctrl = True
                uop.conditional = True
                snap = self._capture_fe_snapshot()
                if self._use_oracle_for(pc):
                    predicted = self.oracle.predict(pc)
                    uop.oracle_used = True
                    uop.conf_confident = True
                else:
                    predicted, meta = self.predictor.predict(pc)
                    events["predictor_access"] += 1
                    uop.pred_meta = meta
                    uop.uses_predictor = True
                    uop.conf_confident = self.confidence.is_confident(pc)
                self.predictor.speculative_update(pc, predicted)
                self.confidence.speculative_update(predicted)
                uop.predicted_taken = predicted
                uop.predicted_target = inst.target
                uop.fe_snap = self._finish_fe_snapshot(snap)
                if predicted:
                    taken_transfer = True
                    next_pc = inst.target
            elif opclass is OpClass.JUMP:
                events["btb_access"] += 1
                uop.is_ctrl = True
                opcode = entry[_D_OPCODE]
                if opcode is Opcode.J:
                    uop.predicted_taken = uop.actual_taken = True
                    uop.predicted_target = uop.actual_target = inst.target
                    taken_transfer = True
                    next_pc = inst.target
                elif opcode is Opcode.JAL:
                    uop.predicted_taken = uop.actual_taken = True
                    uop.predicted_target = uop.actual_target = inst.target
                    if inst.rd == LINK_REG:
                        self.ras.push(pc + 1)
                    taken_transfer = True
                    next_pc = inst.target
                else:  # JALR: indirect; validated at execute
                    snap = self._capture_fe_snapshot()
                    predicted_target = None
                    if inst.rs1 == LINK_REG and inst.rd == ZERO_REG:
                        predicted_target = self.ras.pop()
                    if predicted_target is None:
                        predicted_target = self.btb.lookup(pc)
                    if predicted_target is None:
                        predicted_target = pc + 1
                    uop.predicted_taken = True
                    uop.predicted_target = predicted_target
                    uop.fe_snap = self._finish_fe_snapshot(snap)
                    taken_transfer = True
                    next_pc = predicted_target
            elif opclass is OpClass.HALT:
                self.fetch_halted = True
            elif opclass is OpClass.QSAVE or opclass is OpClass.QRESTORE:
                # Queue save/restore fully serializes: later instructions
                # (in particular pops) must see the restored queue state.
                self.fetch_halted = True

            # BTB-driven misfetch penalty for taken transfers.
            misfetch = False
            if taken_transfer and entry[_D_OPCODE] is not Opcode.JALR:
                if self.btb.lookup(pc) is None:
                    misfetch = True
                    stats.misfetches += 1
                self.btb.install(pc, next_pc)

            seq += 1
            fetch_pipe.append((ready_cycle, uop))
            if obs is not None:
                obs.on_fetch(uop, cycle)
            self.fetch_pc = next_pc
            fetched += 1
            if (
                opclass is OpClass.HALT
                or opclass is OpClass.QSAVE
                or opclass is OpClass.QRESTORE
            ):
                break
            if taken_transfer:
                if misfetch:
                    self.next_fetch_cycle = cycle + 2
                break
            if len(fetch_pipe) >= fetch_pipe_cap:
                break
        self.seq = seq
        if fetched:
            stats.fetched += fetched
            events["fetch"] += fetched

    # ----------------------------------------------------------------- rename

    def stage_rename(self):
        fetch_pipe = self.fetch_pipe
        if not fetch_pipe:
            return
        cycle = self.cycle
        # Nothing can rename this cycle: head still in the front-end pipe,
        # or a serializing instruction is draining.
        if fetch_pipe[0][0] > cycle or self.serialize_pending:
            return
        config = self.config
        rob = self.rob
        rob_size = config.rob_size
        if len(rob) >= rob_size:
            return  # window full: the first iteration would break anyway
        stats = self.stats
        events = stats.events
        obs = self.obs
        decoded = self._decoded
        rename_tables = self.rename_tables
        # rmt / the freelist stack are mutated only in place while renaming
        # (restores, which rebind them, happen in other stages), so both can
        # be hoisted for the whole call and probed without method calls.
        rmt = rename_tables.rmt
        free_phys = rename_tables.freelist._free
        iq = self.iq
        load_queue = self.load_queue
        store_queue = self.store_queue
        prf_ready = self.prf_ready
        prf_level = self.prf_level
        rename_width = config.rename_width
        iq_size = config.iq_size
        renamed = 0
        iq_writes = 0
        prf_allocs = 0
        rob_len = len(rob)  # rob/iq only grow inside this loop
        iq_len = len(iq)
        while renamed < rename_width and fetch_pipe:
            ready_cycle, uop = fetch_pipe[0]
            if ready_cycle > cycle:
                break
            if self.serialize_pending:
                break
            if rob_len >= rob_size:
                break
            opclass = uop.opclass
            entry = decoded[uop.pc]
            needs_iq = entry[_D_NEEDS_IQ]
            if needs_iq and iq_len >= iq_size:
                break
            if opclass is OpClass.LOAD and len(load_queue) >= config.lq_size:
                break
            if opclass is OpClass.STORE and len(store_queue) >= config.sq_size:
                break
            if opclass is OpClass.VQ_PUSH and self.vq_renamer.push_would_stall():
                break
            dest_arch = entry[_D_DEST_ARCH]
            needs_phys = dest_arch is not None or opclass is OpClass.VQ_PUSH
            if needs_phys and not free_phys:
                break

            fetch_pipe.popleft()
            renamed += 1
            self._issue_dirty = True  # new dispatch (or a front-end
            # -resolved JAL writeback) can wake the issue scan
            if obs is not None:
                obs.on_rename(uop, cycle)

            # Sources (predecoded arch registers, in rs1/rs2/rd read order;
            # conditional moves merge with the previous rd value).
            src_arch = entry[_D_SRC_ARCH]
            n_src = len(src_arch)
            if n_src == 1:
                sources = [rmt[src_arch[0]]]
            elif n_src == 2:
                sources = [rmt[src_arch[0]], rmt[src_arch[1]]]
            elif n_src == 0:
                sources = []
            else:
                sources = [rmt[reg] for reg in src_arch]
            if opclass is OpClass.VQ_POP:
                src = self.vq_renamer.pop()
                events["vq_renamer_access"] += 1
                if src is None:
                    uop.vq_dangling = True
                    src = 0  # p0 (zero) — wrong-path only
                uop.vq_source_phys = src
                sources.append(src)
            uop.src_phys = tuple(sources)

            # Destination (inline of RenameTables.allocate_dest; the
            # freelist was checked non-empty above).
            if dest_arch is not None:
                phys = free_phys.pop()
                uop.arch_rd = dest_arch
                uop.phys_rd = phys
                uop.old_phys_rd = rmt[dest_arch]
                rmt[dest_arch] = phys
                prf_ready[phys] = False
                prf_level[phys] = MemLevel.NONE
                prf_allocs += 1
            elif opclass is OpClass.VQ_PUSH:
                phys = free_phys.pop()
                uop.phys_rd = phys
                prf_ready[phys] = False
                prf_level[phys] = MemLevel.NONE
                self.vq_renamer.push(phys)
                events["vq_renamer_access"] += 1

            # Checkpoint allocation for recoverable control uops.  A pop
            # already invalidated by a late push (while it sat in the fetch
            # pipe) is beyond help from a checkpoint: it recovers at retire.
            if (
                uop.fe_snap is not None
                and config.num_checkpoints > 0
                and not uop.needs_retire_redirect
            ):
                skip = (
                    config.confidence_guided_checkpoints
                    and uop.conf_confident
                    and not uop.bq_spec
                )
                if skip:
                    stats.checkpoints_skipped_confident += 1
                else:
                    ckpt_id = self.checkpoints.allocate(
                        uop.seq,
                        rename_tables.snapshot_rmt(),
                        self.vq_renamer.snapshot(),
                        uop.fe_snap,
                    )
                    if ckpt_id is None:
                        stats.checkpoints_denied += 1
                    else:
                        uop.ckpt_id = ckpt_id
                        stats.checkpoints_taken += 1
                        events["checkpoint_save"] += 1
                        if uop.bq_spec:
                            self.hw_bq.set_pop_checkpoint(uop.bq_ptr, ckpt_id)

            # Dispatch
            rob.append(uop)
            rob_len += 1
            self.inflight[uop.seq] = uop

            if opclass is OpClass.QSAVE or opclass is OpClass.QRESTORE:
                uop.serializing = True
                self.serialize_pending = True
            elif not needs_iq:
                # Resolved in the front end: no execution needed.
                if entry[_D_OPCODE] is Opcode.JAL and uop.phys_rd is not None:
                    self.prf_value[uop.phys_rd] = uop.pc + 1
                    prf_ready[uop.phys_rd] = True
                    uop.value = uop.pc + 1
                uop.done = True
            else:
                is_load = entry[_D_IS_LOAD]
                is_store = entry[_D_IS_STORE]
                uop.is_load = is_load
                uop.is_store = is_store
                uop.is_byte = entry[_D_IS_BYTE]
                uop.in_iq = True
                iq.append(uop)
                iq_len += 1
                iq_writes += 1
                if is_load or entry[_D_IS_PREFETCH]:
                    load_queue.append(uop)
                if is_store:
                    sq_entry = StoreQueueEntry(uop)
                    sq_entry.is_byte = uop.is_byte
                    store_queue.append(sq_entry)
        if renamed:
            stats.renamed += renamed
            events["rename"] += renamed
            events["rob_write"] += renamed
            if iq_writes:
                events["iq_write"] += iq_writes
            if prf_allocs:
                events["prf_write_alloc"] += prf_allocs

    # ------------------------------------------------------------------ issue

    def _sources_ready(self, uop):
        # Stores issue to the AGU as soon as the address register is ready;
        # the data register is captured later (split store, typical of OOO
        # cores, and important so younger loads can disambiguate early).
        if uop.is_store:
            return self.prf_ready[uop.src_phys[0]]
        for phys in uop.src_phys:
            if not self.prf_ready[phys]:
                return False
        return True

    def stage_issue(self):
        iq = self.iq
        if not iq:
            return
        # If the last scan issued nothing and no wakeup event happened
        # since (writeback, dispatch, squash, divider release), rescanning
        # would be an identical no-op — skip it.
        if not self._issue_dirty:
            return
        config = self.config
        stats = self.stats
        events = stats.events
        obs = self.obs
        cycle = self.cycle
        prf_ready = self.prf_ready
        decoded = self._decoded
        completions = self.completions
        issue_width = config.issue_width
        alu_free = config.num_alu
        ldst_free = config.num_ldst
        mul_free = config.num_mul
        issued = 0
        div_waited = False
        remaining = []
        append = remaining.append
        for uop in iq:
            if uop.squashed or uop.issued:
                continue
            if issued >= issue_width:
                append(uop)
                continue
            # Wakeup check (inlined _sources_ready): stores issue to the
            # AGU on the address register alone — the data register is
            # captured later (split store) — everything else needs all
            # sources ready.
            src_phys = uop.src_phys
            if uop.is_store:
                if not prf_ready[src_phys[0]]:
                    append(uop)
                    continue
            else:
                ready = True
                for phys in src_phys:
                    if not prf_ready[phys]:
                        ready = False
                        break
                if not ready:
                    append(uop)
                    continue
            opclass = uop.opclass
            if opclass is OpClass.LOAD or opclass is OpClass.STORE:
                if ldst_free <= 0:
                    append(uop)
                    continue
                ldst_free -= 1
                self._issue_memory(uop)
            elif opclass is OpClass.MUL:
                if mul_free <= 0:
                    append(uop)
                    continue
                mul_free -= 1
                self._issue_compute(uop)
            elif opclass is OpClass.DIV:
                if cycle < self.div_busy_until:
                    append(uop)
                    div_waited = True
                    continue
                self.div_busy_until = cycle + decoded[uop.pc][_D_LATENCY]
                self._issue_compute(uop)
            else:
                if alu_free <= 0:
                    append(uop)
                    continue
                alu_free -= 1
                # Inline of _issue_compute + _schedule: the single-cycle
                # ALU op is the dominant issue case.
                uop.issued = True
                uop.in_iq = False
                latency = decoded[uop.pc][_D_LATENCY]
                when = cycle + (latency if latency > 1 else 1)
                bucket = completions.get(when)
                if bucket is None:
                    completions[when] = [uop]
                else:
                    bucket.append(uop)
            issued += 1
            if obs is not None:
                obs.on_issue(uop, cycle)
        self.iq = remaining
        if issued:
            stats.issued += issued
            events["iq_issue"] += issued
        elif not div_waited:
            # Every entry is waiting on a source register (the divider
            # case advances with the clock, so it keeps the flag set).
            self._issue_dirty = False

    def _issue_compute(self, uop):
        uop.issued = True
        uop.in_iq = False
        # Completion is scheduled at the FU latency: dependent operations
        # issue back-to-back through the bypass network, as in real cores.
        # The deeper issue-to-execute pipe shows up only in the branch
        # misprediction penalty, which front_end_depth accounts for.
        latency = self._decoded[uop.pc][_D_LATENCY]
        self._schedule(uop, latency if latency > 1 else 1)

    def _issue_memory(self, uop):
        """AGU issue: compute the address; the memory pipe takes it next."""
        uop.issued = True
        uop.in_iq = False
        base = self.prf_value[uop.src_phys[0]]
        uop.addr = (base + uop.inst.imm) & 0xFFFFFFFF
        uop.addr_known = True
        self.stats.events["agen"] += 1
        if uop.is_store:
            for entry in self.store_queue:
                if entry.uop is uop:
                    entry.addr = uop.addr
                    entry.addr_known = True
                    break
            # A store is "done" once its address is known and data arrives.
            self._schedule(uop, 1)
        else:
            # Loads and prefetches enter the memory pipeline.
            self.waiting_loads.append(uop)

    # ---------------------------------------------------------------- memory

    def stage_memory(self):
        """Disambiguate and launch address-known loads/prefetches."""
        if not self.waiting_loads:
            return
        stats = self.stats
        still_waiting = []
        for uop in self.waiting_loads:
            if uop.squashed:
                continue
            if uop.inst.opcode == Opcode.PREFETCH:
                if self._launch_prefetch(uop):
                    continue
                still_waiting.append(uop)
                continue
            action, other = scan_older_stores(
                self.store_queue, uop, uop.addr, uop.is_byte
            )
            stats.events["lsq_search"] += 1
            if action == "wait":
                still_waiting.append(uop)
                continue
            if action == "forward":
                data = other.value if other.value is not None else (
                    self.prf_value[other.src_phys[1]]
                    if self.prf_ready[other.src_phys[1]]
                    else None
                )
                if data is None:
                    still_waiting.append(uop)
                    continue
                uop.value = self._load_extract(uop, data)
                uop.mem_level = MemLevel.L1
                stats.events["store_forward"] += 1
                self._schedule(uop, 1)
                continue
            # Read the committed image + access the cache hierarchy.
            if not self._launch_load(uop):
                still_waiting.append(uop)
        self.waiting_loads = still_waiting

    def _load_extract(self, uop, word_or_byte):
        opcode = uop.inst.opcode
        if opcode == Opcode.LW or opcode == Opcode.SW:
            return word_or_byte & 0xFFFFFFFF
        value = word_or_byte & 0xFF
        if opcode == Opcode.LB and value & 0x80:
            value |= 0xFFFFFF00
        return value

    def _read_committed(self, uop):
        memory = self.checker.state.memory
        try:
            if uop.is_byte:
                raw = memory.load_byte(uop.addr)
            else:
                raw = memory.load_word(uop.addr & ~3 if uop.addr % 4 else uop.addr)
        except ReproError:
            return 0  # wrong-path garbage address
        return self._load_extract(uop, raw)

    def _launch_load(self, uop):
        stats = self.stats
        # Pending miss to the same block? Merge through the MSHR.
        block = uop.addr // self.mshr.line_bytes
        block_pending = self.mshr._pending.get(block)
        if block_pending is not None and block_pending > self.cycle:
            uop.value = self._read_committed(uop)
            uop.mem_level = self.pending_fill_level.get(block, MemLevel.L2)
            self.mshr.merges += 1
            delay = max(1, block_pending - self.cycle)
            self._schedule(uop, delay)
            stats.events["l1d_access"] += 1
            stats.load_level_counts[int(uop.mem_level)] += 1
            return True
        result = self.memory.access_data(uop.addr, is_write=False, pc=uop.pc)
        stats.events["l1d_access"] += 1
        if result.level >= MemLevel.L2:
            stats.events["l2_access"] += 1
        if result.level >= MemLevel.L3:
            stats.events["l3_access"] += 1
        if result.level >= MemLevel.MEM:
            stats.events["dram_access"] += 1
        if result.level != MemLevel.L1:
            accepted, ready = self.mshr.request(uop.addr, self.cycle, result.latency)
            if not accepted:
                # Structural MSHR stall; retry next cycle (the line is now
                # cached, so the retry will hit — models a 1-cycle replay).
                return False
            self.pending_fill_level[uop.addr // self.mshr.line_bytes] = result.level
        uop.value = self._read_committed(uop)
        uop.mem_level = result.level
        stats.load_level_counts[int(result.level)] += 1
        self._schedule(uop, max(1, result.latency))
        return True

    def _launch_prefetch(self, uop):
        stats = self.stats
        block_pending = self.mshr._pending.get(uop.addr // self.mshr.line_bytes)
        if block_pending is not None and block_pending > self.cycle:
            self._schedule(uop, 1)
            return True
        if self.memory.probe_data_hit(uop.addr):
            self.memory.access_data(uop.addr, is_write=False, pc=uop.pc)
            stats.events["l1d_access"] += 1
            self._schedule(uop, 1)
            return True
        result = self.memory.access_data(uop.addr, is_write=False, pc=uop.pc)
        stats.events["l1d_access"] += 1
        accepted, _ = self.mshr.request(uop.addr, self.cycle, result.latency)
        if not accepted:
            return False
        stats.events["prefetch_issue"] += 1
        self._schedule(uop, 1)  # prefetch completes immediately (non-binding)
        return True

    # -------------------------------------------------------------- complete

    def stage_complete(self):
        uops = self.completions.pop(self.cycle, None)
        if not uops:
            return
        stats = self.stats
        events = stats.events
        obs = self.obs
        cycle = self.cycle
        if len(uops) > 1:
            uops.sort(key=attrgetter("seq"))
        executed = 0
        fu_executed = 0  # non-store: these also count an FU "execute" event
        for uop in uops:
            if uop.squashed or uop.done:
                continue
            opclass = uop.opclass
            if opclass is OpClass.STORE:
                data_phys = uop.src_phys[1]
                if not self.prf_ready[data_phys]:
                    self._schedule(uop, 1)  # data not ready yet; retry
                    continue
                uop.value = self.prf_value[data_phys]
                uop.done = True
                executed += 1
                if obs is not None:
                    obs.on_execute(uop, cycle)
                continue
            self._execute_uop(uop)
            uop.done = True
            executed += 1
            fu_executed += 1
            if obs is not None:
                obs.on_execute(uop, cycle)
        if executed:
            stats.executed += executed
            if fu_executed:
                events["execute"] += fu_executed

    def _execute_uop(self, uop):
        inst = uop.inst
        opclass = uop.opclass
        opcode = inst.opcode
        src_phys = uop.src_phys
        prf_value = self.prf_value
        prf_level = self.prf_level
        # Gather operands; specialized for the overwhelmingly common 1-2
        # source cases (a conditional move's 3 sources take the generic
        # path).  ``level`` is the furthest feeding memory level.
        n = len(src_phys)
        if n == 1:
            p0 = src_phys[0]
            src_values = [prf_value[p0]]
            level = prf_level[p0]
            src_levels = [level]
        elif n == 2:
            p0, p1 = src_phys
            l0 = prf_level[p0]
            l1 = prf_level[p1]
            src_values = [prf_value[p0], prf_value[p1]]
            src_levels = [l0, l1]
            level = l0 if l0 >= l1 else l1
        elif n == 0:
            src_values = src_levels = ()
            level = MemLevel.NONE
        else:
            src_values = [prf_value[p] for p in src_phys]
            src_levels = [prf_level[p] for p in src_phys]
            level = max(src_levels)

        if opclass is OpClass.ALU or opclass is OpClass.MUL or opclass is OpClass.DIV:
            fn = self._decoded[uop.pc][_D_ALU_FN]
            if fn is None:  # CMOVZ / CMOVNZ merge with the previous rd
                a, condition, old_rd = src_values
                move = (condition == 0) == (opcode is Opcode.CMOVZ)
                self._write_dest(uop, a if move else old_rd, level)
            else:
                n = len(src_values)
                a = src_values[0] if n else 0
                b = src_values[1] if n > 1 else 0
                # Inline of _write_dest/_write_phys; fn's result is already
                # a masked 32-bit unsigned value.
                uop.value = value = fn(a, b, inst.imm)
                uop.level = level
                phys = uop.phys_rd
                if phys is not None:
                    prf_value[phys] = value
                    self.prf_ready[phys] = True
                    prf_level[phys] = level
                    self._issue_dirty = True
                    self.stats.events["prf_write"] += 1
        elif opclass is OpClass.LOAD:
            if opcode is not Opcode.PREFETCH:
                self._write_dest(uop, uop.value, uop.mem_level)
            uop.level = uop.mem_level
        elif opclass is OpClass.BRANCH:
            a = src_values[0]
            b = src_values[1] if len(src_values) > 1 else 0
            taken = self._decoded[uop.pc][_D_BR_FN](a, b)
            uop.actual_taken = taken
            uop.actual_target = inst.target if taken else uop.pc + 1
            uop.level = level
            if taken:
                self.btb.install(uop.pc, inst.target)
            if taken != uop.predicted_taken:
                self._mispredict(uop, uop.actual_target, level)
            else:
                self._confirm_control(uop)
        elif opclass is OpClass.JUMP:  # JALR only
            target = src_values[0]
            uop.actual_taken = True
            uop.actual_target = target
            self._write_dest(uop, uop.pc + 1, MemLevel.NONE)
            self.btb.install(uop.pc, target)
            if target != uop.predicted_target:
                self._mispredict(uop, target, level)
            else:
                self._confirm_control(uop)
        elif opclass is OpClass.BQ_PUSH:
            predicate = 1 if src_values[0] else 0
            uop.value = predicate
            uop.level = level
            mismatch = self.hw_bq.execute_push(uop.bq_ptr, predicate, level)
            self.stats.events["bq_access"] += 1
            if mismatch is not None:
                self._late_push_mismatch(uop, mismatch, level)
            else:
                self._late_push_confirm(uop)
        elif opclass is OpClass.TQ_PUSH:
            count = src_values[0]
            uop.value = count
            self.hw_tq.execute_push(uop.tq_ptr, count)
            self.stats.events["tq_access"] += 1
        elif opclass is OpClass.VQ_PUSH:
            self._write_phys(uop.phys_rd, src_values[0], src_levels[0])
            uop.value = src_values[0]
        elif opclass is OpClass.VQ_POP:
            self._write_dest(uop, src_values[0], src_levels[0])
        else:  # pragma: no cover
            raise SimulationError("unexpected opclass in execute: %s" % opclass)

    def _write_phys(self, phys, value, level):
        self.prf_value[phys] = value & 0xFFFFFFFF
        self.prf_ready[phys] = True
        self.prf_level[phys] = level
        self._issue_dirty = True  # a writeback can wake IQ entries
        self.stats.events["prf_write"] += 1

    def _write_dest(self, uop, value, level):
        uop.value = value & 0xFFFFFFFF if value is not None else None
        uop.level = level
        if uop.phys_rd is not None:
            self._write_phys(uop.phys_rd, uop.value or 0, level)

    # -------------------------------------------------------------- recovery

    def _confirm_control(self, uop):
        """Correctly predicted control: OoO checkpoint reclamation."""
        if (
            uop.ckpt_id is not None
            and self.config.ooo_checkpoint_reclaim
        ):
            self.checkpoints.release(uop.ckpt_id)
            uop.ckpt_id = None

    def _late_push_confirm(self, uop):
        """Late push that matched the speculative pop's prediction."""
        index = uop.bq_ptr % self.hw_bq.size
        pop_seq = self.hw_bq.pop_seq[index]
        if pop_seq is None:
            return
        pop_uop = self.inflight.get(pop_seq)
        if pop_uop is not None and not pop_uop.squashed:
            pop_uop.actual_taken = pop_uop.predicted_taken
            pop_uop.actual_target = (
                pop_uop.inst.target if pop_uop.predicted_taken else pop_uop.pc + 1
            )
            self._confirm_control(pop_uop)

    def _late_push_mismatch(self, push_uop, mismatch, level):
        """Late push whose predicate disagrees with the speculative pop."""
        pop_uop = self.inflight.get(mismatch["pop_seq"])
        if pop_uop is None or pop_uop.squashed:
            return
        actual = bool(mismatch["actual"])
        pop_uop.actual_taken = actual
        pop_uop.actual_target = pop_uop.inst.target if actual else pop_uop.pc + 1
        pop_uop.level = level
        self.stats.bq_miss_mispredicts += 1
        self._mispredict(pop_uop, pop_uop.actual_target, level)

    def _mispredict(self, uop, correct_pc, level):
        uop.mispredicted = True
        uop.level = level
        self.stats.recoveries += 1
        if self.obs is not None:
            self.obs.on_recovery(
                uop,
                self.cycle,
                "checkpoint" if uop.ckpt_id is not None else "retire-pending",
            )
        if uop.ckpt_id is not None:
            self._recover_from_checkpoint(uop, correct_pc)
        else:
            uop.needs_retire_redirect = True
            uop.redirect_pc = correct_pc

    def _replay_front_end(self, uop, snap):
        """Restore pre-branch front-end state, then re-apply the actual
        outcome of *uop* (the recovering branch stays in the pipeline)."""
        self.predictor.restore(snap.predictor)
        self.confidence.restore(snap.confidence)
        self.ras.restore(snap.ras)
        if self.oracle is not None and snap.oracle is not None:
            self.oracle.restore(snap.oracle)
        opclass = uop.opclass
        actual = bool(uop.actual_taken)
        if opclass == OpClass.BRANCH:
            if uop.oracle_used:
                self.oracle.reapply(uop.pc)
            self.predictor.speculative_update(uop.pc, actual)
            self.confidence.speculative_update(actual)
        elif opclass == OpClass.BQ_BRANCH:
            self.predictor.speculative_update(uop.pc, actual)
            self.confidence.speculative_update(actual)
        elif opclass == OpClass.JUMP and uop.inst.opcode == Opcode.JALR:
            if uop.inst.rs1 == LINK_REG and uop.inst.rd == ZERO_REG:
                self.ras.pop()

    def _recover_from_checkpoint(self, uop, correct_pc):
        ckpt = self.checkpoints.get(uop.ckpt_id)
        if ckpt is None:  # should not happen; fall back to retire recovery
            uop.needs_retire_redirect = True
            uop.redirect_pc = correct_pc
            return
        self.stats.events["checkpoint_restore"] += 1
        self._squash_younger(uop.seq)
        self.rename_tables.restore_rmt(ckpt.rmt)
        self.vq_renamer.restore(ckpt.vq)
        snap = ckpt.front_end
        self.hw_bq.restore(snap.bq)
        self.hw_tq.restore(snap.tq)
        self.spec_tcr = snap.spec_tcr
        self._replay_front_end(uop, snap)
        self.checkpoints.release(uop.ckpt_id)
        self.checkpoints.release_younger(uop.seq)
        uop.ckpt_id = None
        self._redirect_fetch(correct_pc)

    def _retire_recovery(self, uop):
        self.stats.retire_recoveries += 1
        if self.obs is not None:
            self.obs.on_recovery(uop, self.cycle, "retire")
        self._squash_younger(uop.seq)
        self.checkpoints.release_younger(uop.seq)
        self.rename_tables.restore_rmt_from_amt()
        self.vq_renamer.restore_committed()
        self.hw_bq.restore_committed()
        self.hw_tq.restore_committed()
        self.spec_tcr = self.committed_tcr
        if uop.fe_snap is not None:
            self._replay_front_end(uop, uop.fe_snap)
        self._redirect_fetch(uop.redirect_pc)

    def _redirect_fetch(self, correct_pc):
        self.fetch_pc = correct_pc
        self.fetch_halted = False
        self.next_fetch_cycle = self.cycle + 1 + self.config.recovery_latency
        self.fetch_pipe.clear()
        self.last_inst_block = None

    def _squash_younger(self, seq):
        stats = self.stats
        obs = self.obs
        self._issue_dirty = True  # IQ membership changes below
        while self.rob and self.rob[-1].seq > seq:
            uop = self.rob.pop()
            uop.squashed = True
            stats.squashed += 1
            if obs is not None:
                obs.on_squash(uop, self.cycle)
            if uop.issued or uop.done:
                stats.wrong_path_executed += 1
            if uop.phys_rd is not None:
                self.rename_tables.freelist.release(uop.phys_rd)
                uop.phys_rd = None
            self.inflight.pop(uop.seq, None)
            if uop.serializing:
                self.serialize_pending = False
                self.fetch_halted = False
        for _ready_cycle, uop in self.fetch_pipe:
            if uop.seq > seq:
                uop.squashed = True
                stats.squashed += 1
                if obs is not None:
                    obs.on_squash(uop, self.cycle)
                self.inflight.pop(uop.seq, None)
        self.fetch_pipe = deque(
            item for item in self.fetch_pipe if item[1].seq <= seq
        )
        self.iq = [u for u in self.iq if not u.squashed]
        self.load_queue = [u for u in self.load_queue if not u.squashed]
        self.store_queue = [e for e in self.store_queue if not e.uop.squashed]
        self.waiting_loads = [u for u in self.waiting_loads if not u.squashed]

    # ---------------------------------------------------------------- retire

    def stage_retire(self):
        rob = self.rob
        if not rob or not rob[0].done and not rob[0].serializing:
            return
        stats = self.stats
        events = stats.events
        obs = self.obs
        cycle = self.cycle
        inflight_pop = self.inflight.pop
        retire_width = self.config.retire_width
        retire_limit = self.retire_limit
        retired = 0
        base_retired = stats.retired
        while retired < retire_width and rob:
            uop = rob[0]
            if uop.serializing and not uop.done:
                self._progress_serializing(uop)
                if not uop.done:
                    break
            if not uop.done:
                break
            self._retire_one(uop)
            rob.popleft()
            inflight_pop(uop.seq, None)
            retired += 1
            if obs is not None:
                obs.on_retire(uop, cycle)
            if self.sim_done:
                break
            if uop.needs_retire_redirect:
                self._retire_recovery(uop)
                break
            if retire_limit is not None and base_retired + retired >= retire_limit:
                self.sim_done = True
                break
        if retired:
            stats.retired = base_retired + retired
            events["retire"] += retired
            self.last_retire_cycle = cycle

    def _progress_serializing(self, uop):
        """Save/Restore queue macro-instruction at the ROB head."""
        if len(self.rob) > 1 or self.fetch_pipe or self.iq:
            # Wait for the pipeline behind it to drain; older work is gone
            # (it is at the head) and younger work is stalled at rename.
            pass
        if uop.serialize_start is None:
            queue = self._queue_for(uop.inst.opcode)
            uop.serialize_start = self.cycle
            uop.value = 2 + 2 * queue.length  # cracked pop/store pairs
        if self.cycle >= uop.serialize_start + uop.value:
            uop.done = True

    def _queue_for(self, opcode):
        state = self.checker.state
        if opcode in (Opcode.SAVE_BQ, Opcode.RESTORE_BQ):
            return state.bq
        if opcode in (Opcode.SAVE_VQ, Opcode.RESTORE_VQ):
            return state.vq
        return state.tq

    def _retire_one(self, uop):
        # Architectural checker: replay and compare.
        checker = self.checker
        record = checker.step()
        if record is None:
            raise SimulationError(
                "checker halted but core retired pc %d (%s)" % (uop.pc, uop.inst)
            )
        if record.pc != uop.pc:
            raise SimulationError(
                "retire stream diverged: core pc %d, checker pc %d (%s vs %s)"
                % (uop.pc, record.pc, uop.inst, record.inst)
            )
        if uop.is_ctrl and record.taken is not None and uop.actual_taken is not None:
            if bool(record.taken) != bool(uop.actual_taken):
                raise SimulationError(
                    "direction mismatch at pc %d (%s): core %s checker %s"
                    % (uop.pc, uop.inst, uop.actual_taken, record.taken)
                )
        if (
            uop.arch_rd is not None
            and record.value is not None
            and uop.value is not None
            and uop.value != record.value
        ):
            raise SimulationError(
                "value mismatch at pc %d (%s): core %#x checker %#x"
                % (uop.pc, uop.inst, uop.value, record.value)
            )
        self.committed_tcr = checker.state.tcr

        # Register commitment (inline of RenameTables.commit_dest plus the
        # freelist release).
        arch_rd = uop.arch_rd
        phys_rd = uop.phys_rd
        if arch_rd is not None and phys_rd is not None:
            rename_tables = self.rename_tables
            amt = rename_tables.amt
            rename_tables.freelist._free.append(amt[arch_rd])
            amt[arch_rd] = phys_rd
            uop.phys_rd = None  # now owned by the AMT

        # Plain ALU/MUL/DIV/NOP ops retire without touching any other
        # structure (and never hold a checkpoint): skip the dispatch chain.
        if self._decoded[uop.pc][_D_RETIRE_SIMPLE]:
            return

        stats = self.stats
        events = stats.events
        inst = uop.inst
        opclass = uop.opclass

        # Structure-specific retirement.
        if opclass is OpClass.STORE:
            self.memory.access_data(uop.addr, is_write=True, pc=uop.pc)
            events["l1d_access"] += 1
            # Retirement is in program order, so the retiring store is the
            # oldest SQ entry; fall back to a filter just in case.
            store_queue = self.store_queue
            if store_queue and store_queue[0].uop is uop:
                del store_queue[0]
            else:
                self.store_queue = [e for e in store_queue if e.uop is not uop]
        elif opclass is OpClass.LOAD:
            load_queue = self.load_queue
            if load_queue and load_queue[0] is uop:
                del load_queue[0]
            else:
                self.load_queue = [u for u in load_queue if u is not uop]
        elif opclass == OpClass.BQ_PUSH:
            self.hw_bq.retire_push()
            stats.bq_pushes += 1
        elif opclass == OpClass.BQ_BRANCH:
            self.hw_bq.retire_pop()
            stats.bq_pops += 1
            if uop.bq_spec:
                stats.bq_misses += 1
                if uop.actual_taken is None:
                    raise SimulationError(
                        "speculative pop at pc %d retired without a "
                        "validating push (push/pop ordering violation?)"
                        % uop.pc
                    )
            stats.record_branch(
                uop.pc,
                bool(uop.actual_taken),
                uop.mispredicted,
                uop.level,
                at_fetch=not uop.bq_spec,
            )
            if uop.bq_spec and uop.uses_predictor:
                self.predictor.update(uop.pc, bool(uop.actual_taken), uop.pred_meta)
                self.confidence.update(uop.pc, not uop.mispredicted)
        elif opclass == OpClass.BQ_MARK:
            self.hw_bq.retire_mark()
        elif opclass == OpClass.BQ_FORWARD:
            stats.forward_bulk_pops += self.hw_bq.retire_forward()
        elif opclass == OpClass.TQ_PUSH:
            self.hw_tq.retire_push()
            stats.tq_pushes += 1
        elif opclass in (OpClass.TQ_POP, OpClass.TQ_POP_BOV):
            self.hw_tq.retire_pop()
            stats.tq_pops += 1
            if opclass == OpClass.TQ_POP_BOV:
                stats.record_branch(
                    uop.pc, bool(uop.actual_taken), False, at_fetch=True
                )
        elif opclass == OpClass.TCR_BRANCH:
            stats.tcr_branches += 1
            stats.record_branch(uop.pc, bool(uop.actual_taken), False, at_fetch=True)
        elif opclass == OpClass.VQ_PUSH:
            self.vq_renamer.retire_push()
            stats.vq_pushes += 1
        elif opclass == OpClass.VQ_POP:
            self.vq_renamer.retire_pop()
            stats.vq_pops += 1
            if not uop.vq_dangling and uop.vq_source_phys is not None:
                # "The physical registers allocated to push instructions
                # are freed when the pops that reference them retire."
                # (p0 never reaches here: dangling pops use it and are
                # wrong-path only; boot mappings of r1..r31 can have been
                # legitimately recycled into push destinations.)
                self.rename_tables.freelist.release(uop.vq_source_phys)
        elif opclass == OpClass.BRANCH:
            stats.record_branch(
                uop.pc, bool(uop.actual_taken), uop.mispredicted, uop.level
            )
            if uop.uses_predictor:
                self.predictor.update(uop.pc, bool(uop.actual_taken), uop.pred_meta)
            self.confidence.update(uop.pc, not uop.mispredicted)
        elif opclass == OpClass.JUMP:
            stats.record_branch(
                uop.pc, True, uop.mispredicted, uop.level, conditional=False
            )
        elif opclass in (OpClass.QSAVE, OpClass.QRESTORE):
            self.serialize_pending = False
            self._resync_queues_after_serializing(inst.opcode)
            self.fetch_halted = False
            self.fetch_pc = uop.pc + 1
            self.next_fetch_cycle = self.cycle + 1
            self.last_inst_block = None
        elif opclass == OpClass.HALT:
            self.sim_done = True

        if uop.ckpt_id is not None:
            self.checkpoints.release(uop.ckpt_id)
            uop.ckpt_id = None

    def _resync_queues_after_serializing(self, opcode):
        """Rebuild fetch-unit queue state after a Restore_* instruction.

        The pipeline is drained, so we may renumber pointers arbitrarily —
        exactly the freedom the ISA's length-register-only spec grants.
        """
        state = self.checker.state
        if opcode == Opcode.RESTORE_BQ:
            bq = HardwareBQ(self.config.bq_size)
            for position, predicate in enumerate(state.bq.entries()):
                bq.predicate[position] = predicate
                bq.pushed[position] = True
            bq.fetch_tail = bq.committed_tail = state.bq.length
            self.hw_bq = bq
        elif opcode == Opcode.RESTORE_TQ:
            tq = HardwareTQ(self.config.tq_size, self.config.tq_bits)
            for position, (count, overflow) in enumerate(state.tq.entries()):
                tq.count[position] = count
                tq.overflow[position] = bool(overflow)
                tq.pushed[position] = True
            tq.fetch_tail = tq.committed_tail = state.tq.length
            self.hw_tq = tq
        elif opcode == Opcode.RESTORE_VQ:
            renamer = VQRenamer(self.config.vq_size)
            for value in state.vq.entries():
                phys = self.rename_tables.freelist.allocate()
                if phys is None:
                    raise SimulationError("freelist exhausted during Restore_VQ")
                self._write_phys(phys, value, MemLevel.NONE)
                renamer.push(phys)
            renamer.committed_tail = renamer.fetch_tail
            old = self.vq_renamer
            for pointer in range(old.committed_head, old.committed_tail):
                phys = old.mapping[pointer % old.size]
                if phys >= 32:
                    self.rename_tables.freelist.release(phys)
            self.vq_renamer = renamer

    # ------------------------------------------------- sampled-execution hooks

    def sync_fetch_to_committed(self):
        """Point the fetch unit at the committed PC (post-drain/warm resync)."""
        self._redirect_fetch(self.checker.state.pc)
        self.fetch_halted = bool(self.checker.state.halted)

    def drain_to_committed(self):
        """Discard all in-flight work and resync the machine to committed state.

        The committed architectural state (the functional checker) is the
        only survivor: every speculative structure — ROB, IQ, LSQ, fetch
        pipe, completion wheel, MSHR fills, checkpoints, rename maps,
        CFD queue speculation — is rewound exactly as a retirement
        recovery of the whole window would.  Warm state (predictor, BTB,
        RAS, caches) is untouched.  Used at sampling-interval boundaries,
        where the measurement stops mid-flight and functional warm-up
        resumes from the committed point.

        Squash bookkeeping is routed to a scratch ``SimStats`` so a
        just-measured interval's counters are not polluted; attached
        observers still see the squashes (their instruction-conservation
        counters must keep balancing).
        """
        measured = self.stats
        self.stats = SimStats()
        try:
            self._squash_younger(-1)
        finally:
            self.stats = measured
        self.checkpoints.clear()
        self.inflight.clear()
        self.rename_tables.restore_rmt_from_amt()
        self.vq_renamer.restore_committed()
        self.hw_bq.restore_committed()
        self.hw_tq.restore_committed()
        self.spec_tcr = self.committed_tcr
        # _squash_younger cannot reach these: abandoned completions and
        # in-flight cache fills would otherwise land in the next interval.
        self.completions.clear()
        self.waiting_loads = []
        self.pending_fill_level.clear()
        self.mshr.flush()
        self.serialize_pending = False
        self.sim_done = False
        self._issue_dirty = True
        self.sync_fetch_to_committed()

    def resync_committed_state(self):
        """Rebuild the pipeline's mirror of the committed architectural state.

        After the functional checker advances *outside* the pipeline
        (warm mode, checkpoint restore), the AMT-mapped physical
        registers, the hardware BQ/TQ contents, the VQ renamer mappings
        and the committed TCR are all stale.  Rewrites them from the
        checker's state — the same renumbering freedom
        :meth:`_resync_queues_after_serializing` exploits — and
        re-points fetch at the committed PC.  The pipeline must be
        drained first.
        """
        arch = self.checker.state
        amt = self.rename_tables.amt
        regs = arch.regs
        for reg in range(1, NUM_GPRS):
            self._write_phys(amt[reg], regs[reg], MemLevel.NONE)
        self._resync_queues_after_serializing(Opcode.RESTORE_BQ)
        self._resync_queues_after_serializing(Opcode.RESTORE_TQ)
        self._resync_queues_after_serializing(Opcode.RESTORE_VQ)
        self.rename_tables.restore_rmt_from_amt()
        self.committed_tcr = self.spec_tcr = arch.tcr
        self.sync_fetch_to_committed()

    def restore_committed_state(self, arch, retired):
        """Install *arch* (an :class:`~repro.arch.state.ArchState`) as the
        committed state; *retired* is its absolute instruction count.

        Drains first, then rebuilds every committed mirror via
        :meth:`resync_committed_state`.  *arch* is adopted, not copied.
        Checkpoint restore for sampled simulation
        (:mod:`repro.perf.sample`).
        """
        self.drain_to_committed()
        self.checker.state = arch
        self.checker.retired = retired
        self.resync_committed_state()

    def run_slice(self, max_instructions, warmup_instructions=0):
        """Run one detailed measurement interval; returns its fresh stats.

        Unlike :meth:`run`, this is re-entrant: each call swaps in a new
        :class:`SimStats`, re-bases the cycle counter, and resets the
        structure-level counters (caches, MSHR) exactly as the warmup
        boundary does — so the returned stats cover only this interval
        while all warm state persists.  *warmup_instructions* retire in
        detail ahead of the measured region (detailed ramp-up after a
        functional warm gap).  The caller is responsible for interval
        spacing (:meth:`drain_to_committed` + ``warm_advance``).
        """
        self.stats = SimStats()
        self._cycle_base = self.cycle
        self.warmup_stats = None
        self._reset_structure_counters()
        self.sim_done = False
        self.last_retire_cycle = self.cycle
        self.retire_limit = (warmup_instructions or 0) + max_instructions
        return self._run_loop(warmup_instructions)

    # ------------------------------------------------------------------- run

    def run(self, max_instructions=None, warmup_instructions=0):
        """Simulate until HALT or *max_instructions* retired.

        Returns the :class:`SimStats`.  When *warmup_instructions* is given,
        statistics are reset after that many instructions retire (caches,
        predictors and queues stay warm), mirroring the paper's 10M-warmup
        methodology.
        """
        self.retire_limit = None
        if max_instructions is not None:
            self.retire_limit = (warmup_instructions or 0) + max_instructions
        return self._run_loop(warmup_instructions)

    def _run_loop(self, warmup_instructions):
        """Cycle until done (HALT, retire limit or ``max_cycles``).

        Statistics reset once *warmup_instructions* retire.  The stage
        methods are looked up on ``self`` at each call, so wrappers
        installed on the class take effect.  Returns :attr:`stats`.
        """
        warm_target = warmup_instructions if warmup_instructions else None
        stall_guard = getattr(self.config, "deadlock_cycles", 100_000)
        stage_retire = self.stage_retire
        stage_complete = self.stage_complete
        stage_memory = self.stage_memory
        stage_issue = self.stage_issue
        stage_rename = self.stage_rename
        stage_fetch = self.stage_fetch
        mshr_sample = self.mshr.sample
        max_cycles = self.config.max_cycles
        # Uops never form reference cycles, so the cyclic collector only
        # burns time re-scanning the (large, growing) simulator heap.
        # Pause it for the duration of the run; refcounting still frees
        # everything promptly.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while not self.sim_done:
                stage_retire()
                if self.sim_done:
                    break
                if (
                    self.fetch_halted
                    and not self.rob
                    and not self.fetch_pipe
                    and not self.serialize_pending
                ):
                    # Ran off the end of the code segment (implicit halt).
                    self.sim_done = True
                    break
                stage_complete()
                stage_memory()
                stage_issue()
                stage_rename()
                stage_fetch()
                mshr_sample(self.cycle)
                if self.obs is not None:
                    self.obs.on_cycle_end(self)
                    self.cycle += 1
                    self.stats.cycles = self.cycle - self._cycle_base
                else:
                    # Fast path: stats.cycles is derived from self.cycle, so
                    # the per-cycle store is deferred to the warmup boundary
                    # and to run() exit — observers are the only per-cycle
                    # readers.
                    self.cycle += 1
                if warm_target is not None and self.stats.retired >= warm_target:
                    self.stats.cycles = self.cycle - self._cycle_base
                    self._reset_stats_after_warmup()
                    warm_target = None
                if self.cycle - self.last_retire_cycle > stall_guard:
                    raise SimulationError(self._deadlock_report(stall_guard))
                if self.cycle >= max_cycles:
                    break
        finally:
            if gc_was_enabled:
                gc.enable()
        self.stats.cycles = self.cycle - self._cycle_base
        return self.stats

    def _deadlock_report(self, stall_guard, event_limit=20):
        """Diagnostics for the no-retire-progress watchdog.

        Besides the wedge location (cycle/pc/occupancies), pulls the last
        few pipeline events from any attached observer that keeps an event
        ring (``EventTracer``, ``InvariantChecker``), so a deadlock in a
        long sweep is diagnosable from the exception text alone.
        """
        head = self.rob[0] if self.rob else None
        lines = [
            "pipeline deadlock at cycle %d (pc %d, rob %d, iq %d): "
            "no retirement in %d cycles (deadlock_cycles=%d)"
            % (self.cycle, self.fetch_pc, len(self.rob), len(self.iq),
               self.cycle - self.last_retire_cycle, stall_guard),
            "  last retire: cycle %d; rob head: %s"
            % (self.last_retire_cycle,
               "pc %d (%s) done=%s" % (head.pc, head.inst, head.done)
               if head is not None else "<empty>"),
            "  occupancy: bq %d/%d tq %d/%d vq %d/%d lq %d sq %d"
            % (self.hw_bq.length, self.hw_bq.size,
               self.hw_tq.length, self.hw_tq.size,
               self.vq_renamer.length, self.vq_renamer.size,
               len(self.load_queue), len(self.store_queue)),
        ]
        observers = []
        if isinstance(self.obs, MultiObserver):
            observers = self.obs.observers
        elif self.obs is not None:
            observers = [self.obs]
        for observer in observers:
            iter_events = getattr(observer, "iter_events", None)
            if not callable(iter_events):
                continue
            recent = list(iter_events())[-event_limit:]
            if not recent:
                continue
            lines.append("  last %d events (%s):"
                         % (len(recent), type(observer).__name__))
            lines.extend(
                "    cycle %d %-8s seq=%d pc=%d %s"
                % (e.cycle, e.kind, e.seq, e.pc, e.op)
                for e in recent
            )
        return "\n".join(lines)

    def _reset_stats_after_warmup(self):
        """Zero the measurement counters; keep all microarchitectural state.

        Caches, predictors, BTB and queues stay warm (the paper's 10M-warmup
        then measure methodology).  The simulated clock keeps running; only
        the counters restart, so IPC is measured over the post-warmup region.
        """
        warm_retired = self.stats.retired
        self.warmup_stats = self.stats
        self.stats = SimStats()
        if self.retire_limit is not None:
            self.retire_limit -= warm_retired
        self._cycle_base = self.cycle
        self._reset_structure_counters()

    def _reset_structure_counters(self):
        """Zero the cache and MSHR counters (the state itself stays warm)."""
        self.memory.l1i.reset_stats()
        self.memory.l1d.reset_stats()
        self.memory.l2.reset_stats()
        self.memory.l3.reset_stats()
        self.mshr.occupancy_histogram.clear()
        self.mshr.allocations = self.mshr.merges = self.mshr.full_stalls = 0
