"""The fused warm pre-scan against the step()-based reference.

:func:`record_portable_trace` executes and records each instruction in
one per-PC handler call, and ``PortableWarmTrace.materialize``
re-executes strides with the same handlers.  These tests hold both to
:mod:`tests.perf.warm_reference`'s loop over ``FunctionalExecutor.step``:
``to_bytes()`` is byte-identical on programs that cover every opcode
class and every way a scan ends, and the offsets and snapshots derived
at arbitrary marks equal a step-by-step scan's.
"""

import pytest

from repro.arch.executor import FunctionalExecutor
from repro.core import sandy_bridge_config
from repro.core.pipeline import Pipeline
from repro.core.warm import (
    _E_BR,
    _E_CFD_T,
    _E_JAL_LINK,
    _E_JALR_RET,
    _E_JUMP,
    _E_LOAD,
    _E_ORACLE,
    _E_STORE,
    PortableWarmTrace,
    TraceFormatError,
    _static_event_kinds,
    record_portable_trace,
)
from repro.isa import assemble
from repro.workloads import get_workload
from tests.perf.warm_reference import reference_record, state_image

#: BQ/VQ/TQ pushes and pops, Branch_on_BQ, Branch_on_TCR and Pop_TQ_BOV
#: both ways, Mark/Forward, and conditional branches in a loop.
QUEUES = """
.text
main:
    li   r10, 6
outer:
    li   r1, 1
    push_bq r1
    push_bq r0
    mark
    push_bq r1
    forward                  # drops the two pushes before the mark
    b_bq q1
    addi r2, r2, 1
q1: push_bq r0
    push_bq r1
    b_bq q2
    addi r2, r2, 2
q2: b_bq q3
    addi r2, r2, 3
q3: push_vq r10
    push_vq r2
    pop_vq r3
    pop_vq r4
    push_tq r10
    pop_tq
    j    test
body:
    addi r5, r5, 1
test:
    b_tcr body
    li   r6, 100000          # exceeds the 16-bit trip count
    push_tq r6
    push_tq r10
    pop_tq_bov big
    addi r7, r7, 1
big:
    pop_tq_bov big2
    addi r7, r7, 2
big2:
    addi r10, r10, -1
    bnez r10, outer
    halt
"""

#: lw/lb/lbu/sw/sb/prefetch, CMOV, Save/Restore of all three queues,
#: JAL/JALR call and return, an indirect call, and data-dependent
#: branches.
MEMORY = """
.data
arr:   .word 0x80, 3, 0xFFFFFF7F, 0, 9, 0x11223344, 7, 0
spill: .space 24
out:   .space 8
.text
main:
    la   r1, arr
    la   r2, spill
    la   r3, out
    li   r4, 8
    la   r9, leaf2
loop:
    lw   r5, 0(r1)
    lb   r6, 0(r1)
    lbu  r7, 1(r1)
    prefetch 32(r1)
    sb   r6, 0(r3)
    add  r8, r8, r5
    sw   r8, 4(r3)
    cmovz r11, r5, r7
    cmovnz r12, r5, r7
    beqz r5, skip
    jal  r31, leaf
skip:
    push_bq r5
    push_vq r6
    push_tq r4
    save_bq 0(r2)
    save_vq 8(r2)
    save_tq 16(r2)
    b_bq nb
nb: pop_vq r13
    pop_tq
    restore_bq 0(r2)
    restore_vq 8(r2)
    restore_tq 16(r2)
    b_bq nb2
nb2:
    pop_vq r13
    pop_tq
    jalr r30, r9             # indirect call, returns through r30
    addi r1, r1, 4
    addi r4, r4, -1
    bge  r4, r0, loop2
    j    done
loop2:
    bnez r4, loop
done:
    halt
leaf:
    addi r14, r14, 1
    jalr r0, r31
leaf2:
    addi r15, r15, 1
    jalr r0, r30
"""

#: A loop that falls off the end of the code after a few trips.
OFF_END = """
.text
main:
    li   r1, 9
loop:
    addi r2, r2, 3
    addi r1, r1, -1
    bnez r1, loop
    nop
"""

#: A loop that leaves the code through a register-indirect jump.
OFF_JUMP = """
.text
main:
    li   r1, 7
    li   r9, 100000
loop:
    addi r1, r1, -1
    bnez r1, loop
    jalr r0, r9
"""

#: Every per-PC event kind but the oracle's, which needs a perfect-PC config
#: (see ``test_bytes_identical_with_oracle_covered_branches``).
_KINDS = {_E_LOAD, _E_STORE, _E_BR, _E_CFD_T, _E_JAL_LINK, _E_JALR_RET,
          _E_JUMP}


def _pipeline(source, perfect_pcs=()):
    program = assemble(source)
    config = sandy_bridge_config()
    config.perfect_pcs = set(perfect_pcs)
    return Pipeline(program, config)


def _length(source):
    """Dynamic length of *source* run to its end."""
    trace, _ = reference_record(_pipeline(source), 1_000_000)
    assert trace.halted
    return trace.total


def _assert_same_recording(pipeline, limit, stride):
    fused = record_portable_trace(pipeline, limit, stride)
    reference, _ = reference_record(pipeline, limit, stride)
    assert fused.to_bytes() == reference.to_bytes()
    assert (fused.total, fused.halted) == (reference.total, reference.halted)
    return fused


def test_programs_cover_every_event_kind():
    kinds = set()
    for source in (QUEUES, MEMORY):
        kinds.update(_static_event_kinds(_pipeline(source)))
    assert _KINDS <= kinds


@pytest.mark.parametrize("source", [QUEUES, MEMORY], ids=["queues", "memory"])
@pytest.mark.parametrize("stride", [1, 3, 7, 16, 4096])
def test_bytes_identical_at_halt_mid_stride(source, stride):
    total = _length(source)
    if stride > 1:
        assert total % stride  # the halt lands inside a stride
    trace = _assert_same_recording(_pipeline(source), total + 50, stride)
    assert trace.halted and trace.total == total


@pytest.mark.parametrize("source", [QUEUES, MEMORY], ids=["queues", "memory"])
def test_bytes_identical_with_halt_on_a_boundary(source):
    total = _length(source)
    # The halt is the stride's last instruction; the scan then stops on
    # the next fetch, or exactly at the budget.
    _assert_same_recording(_pipeline(source), total + 1, total)
    _assert_same_recording(_pipeline(source), total, total)


@pytest.mark.parametrize("source", [OFF_END, OFF_JUMP],
                         ids=["fall-through", "indirect-jump"])
@pytest.mark.parametrize("stride", [1, 4, 5, 4096])
def test_bytes_identical_running_off_the_code(source, stride):
    trace = _assert_same_recording(_pipeline(source), 10_000, stride)
    assert trace.halted


@pytest.mark.parametrize("source", [QUEUES, MEMORY], ids=["queues", "memory"])
def test_bytes_identical_at_a_budget_limit(source):
    total = _length(source)
    for limit in (0, 1, 37, 64, total // 2 + 1, total - 1, total):
        for stride in (8, 13):
            trace = _assert_same_recording(_pipeline(source), limit, stride)
            assert trace.total == limit and not trace.halted


def test_bytes_identical_with_oracle_covered_branches():
    plain = _pipeline(MEMORY)
    branches = [pc for pc, kind in enumerate(_static_event_kinds(plain))
                if kind == _E_BR]
    pipeline = _pipeline(MEMORY, perfect_pcs=branches[::2])
    kinds = _static_event_kinds(pipeline)
    assert _E_ORACLE in kinds and _E_BR in kinds
    _assert_same_recording(pipeline, 100_000, 11)


def test_bytes_identical_on_a_reference_workload():
    built = get_workload("bzip2").build("tq", "chicken", 0.125, 1)
    pipeline = Pipeline(built.program, sandy_bridge_config())
    _assert_same_recording(pipeline, 30_000, 1000)


@pytest.mark.parametrize("source", [QUEUES, MEMORY, OFF_END, OFF_JUMP],
                         ids=["queues", "memory", "off-end", "off-jump"])
def test_materialize_matches_a_stepped_scan_at_arbitrary_marks(source):
    pipeline = _pipeline(source)
    limit = 10_000
    trace, _ = reference_record(pipeline, limit, 1_000_000)
    total = trace.total
    marks = sorted({0, 1, 2, 5, 9, 10, 11, 23, total // 3, total // 2,
                    total - 1, total, total + 5})
    _, marked = reference_record(pipeline, limit, 9, marks)
    stored = PortableWarmTrace.from_bytes(
        record_portable_trace(pipeline, limit, 9).to_bytes())
    derived = stored.materialize(pipeline, limit, marks, marks)
    assert sorted(derived.offsets) == sorted(marked)
    for mark, (offset, image) in marked.items():
        assert derived.offsets[mark] == offset, mark
        assert state_image(derived.snapshots[mark]) == image, mark


def test_materialize_rejects_scaffolding_that_halts_early():
    pipeline = _pipeline(OFF_END)
    trace = record_portable_trace(pipeline, 10_000, 4)
    # Claim more instructions than the program runs: the re-execution
    # from the last boundary reaches the end of the code first.
    trace.total += 10
    with pytest.raises(TraceFormatError):
        trace.materialize(pipeline, 10_000, [trace.total - 1])


def test_recording_and_materializing_never_step(monkeypatch):
    built = get_workload("soplex").build("cfd", "ref", 0.125, 1)
    pipeline = Pipeline(built.program, sandy_bridge_config())
    calls = []
    real_step = FunctionalExecutor.step

    def counting_step(self):
        calls.append(1)
        return real_step(self)

    monkeypatch.setattr(FunctionalExecutor, "step", counting_step)
    trace = record_portable_trace(pipeline, 20_000, 1024)
    marks = [0, 777, 5000, 12_345, trace.total]
    derived = trace.materialize(pipeline, 20_000, marks, marks)
    assert len(derived.snapshots) == len(marks)
    assert calls == []


@pytest.mark.parametrize("stride", [4, 8])
@pytest.mark.parametrize("length", [7, 8, 9])
def test_snapshot_at_total_reads_the_traces_halted(length, stride):
    """A program of *length* straight-line instructions runs off the end
    of its code.  Whether or not *length* is a stride multiple, the last
    boundary and the snapshot at ``total`` read the machine's final
    ``halted``, as ``trace.halted`` does."""
    source = ".text\nmain:\n" + "    addi r1, r1, 1\n" * length
    pipeline = _pipeline(source)
    trace = record_portable_trace(pipeline, 1000, stride)
    assert (trace.total, trace.halted) == (length, True)
    assert trace.boundaries[-1].halted
    stored = PortableWarmTrace.from_bytes(trace.to_bytes())
    derived = stored.materialize(pipeline, 1000, [length], [length])
    assert derived.snapshots[length].halted is trace.halted
    reference, _ = reference_record(pipeline, 1000, stride)
    assert reference.to_bytes() == trace.to_bytes()
