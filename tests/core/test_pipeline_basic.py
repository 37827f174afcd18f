"""Cycle core vs functional oracle on basic programs.

Every test relies on the retirement checker built into the pipeline: any
datapath divergence raises SimulationError, and the final architectural
state is compared against an independent functional run.
"""

import pytest

from repro.core import sandy_bridge_config, simulate
from repro.core.pipeline import Pipeline, Uop
from repro.isa import assemble
from tests.conftest import run_both


def test_straightline_arithmetic(tiny_config):
    program = assemble(
        """
.text
main:
    li   r1, 5
    li   r2, 9
    add  r3, r1, r2
    mul  r4, r3, r3
    div  r5, r4, r2
    rem  r6, r4, r2
    halt
"""
    )
    functional, result = run_both(program, tiny_config)
    assert result.stats.retired == functional.retired
    assert result.pipeline.checker.state.regs[4] == 196


def test_loop_with_memory(tiny_config):
    program = assemble(
        """
.data
arr: .word 1, 2, 3, 4, 5, 6, 7, 8
out: .word 0
.text
main:
    la   r1, arr
    li   r2, 8
    li   r3, 0
loop:
    lw   r4, 0(r1)
    add  r3, r3, r4
    addi r1, r1, 4
    addi r2, r2, -1
    bnez r2, loop
    la   r5, out
    sw   r3, 0(r5)
    halt
"""
    )
    functional, result = run_both(program, tiny_config)
    assert result.pipeline.checker.state.memory.load_word(
        program.symbol("out")
    ) == 36


def test_store_to_load_forwarding(tiny_config):
    program = assemble(
        """
.data
buf: .space 4
.text
main:
    la   r1, buf
    li   r2, 77
    sw   r2, 0(r1)
    lw   r3, 0(r1)      # must see the in-flight store
    addi r3, r3, 1
    sw   r3, 4(r1)
    lw   r4, 4(r1)
    halt
"""
    )
    functional, result = run_both(program, tiny_config)
    assert result.pipeline.checker.state.regs[4] == 78


def test_byte_operations(tiny_config):
    program = assemble(
        """
.data
buf: .word 0x00000080
.text
main:
    la   r1, buf
    lb   r2, 0(r1)
    lbu  r3, 0(r1)
    sb   r3, 5(r1)
    lbu  r4, 5(r1)
    halt
"""
    )
    run_both(program, tiny_config)


def test_calls_and_returns(tiny_config):
    program = assemble(
        """
.text
main:
    li   r2, 0
    li   r3, 4
loop:
    jal  r31, callee
    addi r3, r3, -1
    bnez r3, loop
    halt
callee:
    addi r2, r2, 5
    jalr r0, r31
"""
    )
    functional, result = run_both(program, tiny_config)
    assert result.pipeline.checker.state.regs[2] == 20


def test_cmov_pipeline(tiny_config):
    program = assemble(
        """
.data
vals: .word 3, -4, 5, -6, 7, -8, 9, -10
.text
main:
    la   r1, vals
    li   r2, 8
    li   r3, 0        # sum of positives via if-conversion
loop:
    lw   r4, 0(r1)
    slt  r5, r4, r0
    add  r6, r3, r4
    cmovz r3, r6, r5
    addi r1, r1, 4
    addi r2, r2, -1
    bnez r2, loop
    halt
"""
    )
    functional, result = run_both(program, tiny_config)
    assert result.pipeline.checker.state.regs[3] == 24


def test_ipc_is_sane_for_ilp_kernel(tiny_config):
    program = assemble(
        """
.text
main:
    li   r9, 200
loop:
    addi r1, r1, 1
    addi r2, r2, 1
    addi r3, r3, 1
    addi r4, r4, 1
    addi r5, r5, 1
    addi r6, r6, 1
    addi r9, r9, -1
    bnez r9, loop
    halt
"""
    )
    # Warm up past the cold I-cache fill, then measure steady state.
    result = simulate(program, tiny_config, warmup_instructions=400)
    assert result.stats.ipc > 2.0  # independent chains, 3 ALU ports


def test_serial_dependence_limits_ipc(tiny_config):
    program = assemble(
        """
.text
main:
    li   r9, 200
loop:
    mul  r1, r1, r1   # 3-cycle serial chain
    addi r9, r9, -1
    bnez r9, loop
    halt
"""
    )
    result = simulate(program, tiny_config, warmup_instructions=100)
    assert result.stats.ipc < 1.5


def test_max_instructions_cap(count_program):
    result = simulate(
        count_program, sandy_bridge_config(), max_instructions=20
    )
    assert result.stats.retired == 20


def test_warmup_resets_measurement(count_program):
    result = simulate(
        count_program, sandy_bridge_config(), warmup_instructions=30
    )
    assert result.pipeline.warmup_stats is not None
    assert result.pipeline.warmup_stats.retired >= 30
    assert result.stats.retired + result.pipeline.warmup_stats.retired >= 50


def test_fetch_runs_off_code_end(tiny_config):
    program = assemble(".text\nmain:\nnop\nnop\nnop")
    functional, result = run_both(program, tiny_config)
    assert result.stats.retired == 3


def test_wrong_path_load_from_a_bad_address_reads_zero(tiny_config):
    """A wrong-path load can compute any address; reading the committed
    image there yields 0 rather than an error."""
    program = assemble(".text\nmain:\nlb r1, 0(r2)\nlw r3, 0(r2)\nhalt")
    pipeline = Pipeline(program, tiny_config)
    for pc, addr in ((0, -4), (1, -4)):
        uop = Uop(0, pc, program.code[pc], 0)
        uop.is_byte = pc == 0
        uop.addr = addr
        assert pipeline._read_committed(uop) == 0


def test_uop_is_a_slotted_record_with_every_field_written():
    """A uop keeps no instance dict, and its constructor writes every
    slot, so no stage can read a field that falls through to nothing."""
    program = assemble(".text\nmain:\nlw r3, 0(r2)\nhalt")
    uop = Uop(7, 0, program.code[0], 3)
    assert not hasattr(uop, "__dict__")
    for name in Uop.__slots__:
        getattr(uop, name)
    assert (uop.seq, uop.pc, uop.fetched_cycle, uop.addr) == (7, 0, 3, None)
    with pytest.raises(AttributeError):
        uop.in_iq = True
