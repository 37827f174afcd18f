"""Program container: validation, listing, bounds, the data image."""

import pytest

from repro.arch.memory import Memory
from repro.errors import MemoryError_
from repro.isa import assemble
from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import DATA_BASE, Program


def test_instruction_at_bounds(count_program):
    assert count_program.instruction_at(0) is not None
    assert count_program.instruction_at(len(count_program) - 1) is not None
    assert count_program.instruction_at(len(count_program)) is None
    assert count_program.instruction_at(-1) is None


def test_validate_detects_bad_target():
    program = Program(code=[Instruction(Opcode.J, target=99)])
    problems = program.validate()
    assert any("target" in p for p in problems)


def test_validate_clean_program(count_program):
    assert count_program.validate() == []


def test_listing_includes_labels(count_program):
    listing = count_program.listing()
    assert "main:" in listing
    assert "gen:" in listing
    assert "push_bq" in listing


def test_len(count_program):
    assert len(count_program) == len(count_program.code)


def test_validate_detects_non_branch_with_target():
    program = Program(
        code=[
            Instruction(Opcode.ADDI, rd=1, rs1=0, imm=1, target=0),
            Instruction(Opcode.HALT),
        ]
    )
    problems = program.validate()
    assert any("non-branch" in p and "addi" in p for p in problems)


def test_validate_detects_branch_without_target():
    program = Program(
        code=[Instruction(Opcode.J), Instruction(Opcode.HALT)]
    )
    problems = program.validate()
    assert any("pc 0" in p and "target" in p for p in problems)


def test_validate_detects_label_symbol_collision():
    source = ".data\nbuf: .word 7\n.text\n  addi r1, r0, 1\n  halt\n"
    program = assemble(source, name="collide")
    program.labels["buf"] = 0  # force the namespace clash
    problems = program.validate()
    assert any("both a code label" in p and "'buf'" in p for p in problems)


def test_hand_built_data_becomes_one_image_with_its_words():
    program = Program(data={DATA_BASE + 8: 5, DATA_BASE: -1, 0x40: 7,
                            DATA_BASE + 4: 0})
    assert isinstance(program.data, Memory)
    # Same words, zeros included, in address order, masked to 32 bits.
    assert list(program.data.items()) == [
        (0x40, 7), (DATA_BASE, 0xFFFFFFFF), (DATA_BASE + 4, 0),
        (DATA_BASE + 8, 5)]
    assert program.data[DATA_BASE + 8] == 5
    with pytest.raises(KeyError):
        program.data[DATA_BASE + 12]


@pytest.mark.parametrize("addr, message", [
    (DATA_BASE + 2, "misaligned word access at 0x10002"),
    (-4, "negative address 0x-4"),
    (-3, "misaligned word access at 0x-3"),
])
def test_hand_built_data_is_validated_on_construction(addr, message):
    with pytest.raises(MemoryError_, match="^%s$" % message):
        Program(data={DATA_BASE: 1, addr: 2})
