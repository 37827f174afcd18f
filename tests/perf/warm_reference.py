"""Step()-based references for the warm pre-scan.

:func:`reference_record` is the pre-scan written as a loop over
:meth:`FunctionalExecutor.step` and its :class:`RetireRecord`: it reads
each record's PC, direction, target and address and appends the events
:func:`repro.core.warm.warm_advance` applies for them.
:func:`repro.core.warm.record_portable_trace` does the same work with one
fused handler call per instruction and must produce the same bytes.
Boundary capture is shared (``_TraceRecorder``); only the per-instruction
loop differs.

:func:`record_warm_trace` is the one-call pre-scan plus derivation that
live-warming tests compare against :func:`warm_advance`.
"""

from repro.arch.executor import FunctionalExecutor
from repro.core.pipeline import CODE_BASE
from repro.core.warm import (
    _E_BR,
    _E_CFD_T,
    _E_ICACHE,
    _E_LOAD,
    _E_ORACLE,
    _E_STORE,
    DEFAULT_TRACE_STRIDE,
    _recording_state,
    _static_event_kinds,
    _TraceRecorder,
    record_portable_trace,
)


def state_image(state):
    """A comparable image of everything an architectural snapshot holds
    except ``halted``.  (A scan that runs off the code sets ``halted``
    only on the failed fetch after its last instruction, so a snapshot
    taken at that position legitimately reads either way.)"""
    bq, vq, tq = state.bq, state.vq, state.tq
    return (
        state.pc, tuple(state.regs), state.tcr,
        sorted((addr, word) for addr, word in state.memory.words().items()
               if word),
        (tuple(bq.entries()), bq.total_pushes, bq.total_pops, bq._mark),
        (tuple(vq.entries()), vq.total_pushes, vq.total_pops),
        (tuple(tq.entries()), tq.total_pushes, tq.total_pops),
    )


def reference_record(pipeline, limit, stride=DEFAULT_TRACE_STRIDE,
                     marks=()):
    """Record *pipeline*'s warm trace by stepping a
    :class:`FunctionalExecutor`.

    Returns ``(trace, marked)``: the :class:`PortableWarmTrace`, and for
    every position in *marks* that the scan reaches, the event offset and
    :func:`state_image` there — what ``materialize`` must derive.
    """
    state = _recording_state(pipeline)
    recorder = _TraceRecorder(pipeline, state, stride)
    step = FunctionalExecutor(pipeline.program, state).step
    static_kinds = _static_event_kinds(pipeline)
    block_shift = recorder.block_shift
    kinds = recorder.kinds
    k_append = kinds.append
    a_append = recorder.a.append
    b_append = recorder.b.append
    marks = set(marks)
    marked = {}
    prev_block = -1
    i = 0
    machine_halted = False
    while True:
        if i in marks:
            marked[i] = (len(kinds), state_image(state))
        if i >= limit:
            break
        record = step()
        if record is None:
            machine_halted = True
            break
        i += 1
        pc = record.pc
        block = pc >> block_shift
        if block != prev_block:
            k_append(_E_ICACHE)
            a_append(CODE_BASE + pc * 4)
            b_append(0)
            prev_block = block
        kind = static_kinds[pc]
        if kind:
            if kind == _E_LOAD or kind == _E_STORE:
                k_append(kind)
                a_append(pc)
                b_append(record.mem_addr)
            elif kind == _E_BR or kind == _E_ORACLE:
                if record.taken:
                    k_append(kind + 1)
                    a_append(pc)
                    b_append(record.target)
                    prev_block = -1
                else:
                    k_append(kind)
                    a_append(pc)
                    b_append(0)
            elif kind == _E_CFD_T:
                if record.taken:
                    k_append(kind)
                    a_append(pc)
                    b_append(record.target)
                    prev_block = -1
            else:  # jumps: always taken
                k_append(kind)
                a_append(pc)
                b_append(record.target)
                prev_block = -1
        if i % stride == 0:
            recorder.capture(i, prev_block)
    return recorder.finish(i, prev_block, machine_halted), marked


def record_warm_trace(pipeline, limit, positions=(), snapshot_positions=()):
    """Functionally pre-execute up to *limit* instructions, recording the
    warm-mode event stream.

    The recorder runs on a throwaway state (the pipeline is untouched)
    and emits exactly the side-effect schedule :func:`warm_advance` would
    apply — I-cache block accesses (with the taken-transfer reset), data
    accesses, predictor-trained and oracle-covered branches, RAS
    pushes/pops, BTB installs.  *positions* mark instruction indices
    whose event offsets the caller needs; *snapshot_positions* (a subset
    semantically, merged automatically) additionally capture a deep
    architectural-state copy, which a sampled run adopts to teleport its
    checker across a warm gap.  Positions past the halt point are
    silently absent from the result.

    Implemented as :func:`record_portable_trace` +
    :meth:`PortableWarmTrace.materialize`, the sampled engine's path.
    """
    trace = record_portable_trace(pipeline, limit)
    return trace.materialize(pipeline, limit, positions, snapshot_positions)
