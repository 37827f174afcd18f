"""Shared value semantics (alu_compute / branch_taken)."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro.arch.bits import to_signed, to_unsigned
from repro.arch.semantics import (
    ALU_OPCODES,
    alu_compute,
    alu_fn,
    branch_fn,
    branch_taken,
)
from repro.isa.opcodes import Opcode

_U32 = st.integers(0, 0xFFFFFFFF)


@given(_U32, _U32)
def test_add_sub_wrap(a, b):
    assert alu_compute(Opcode.ADD, a, b) == (a + b) & 0xFFFFFFFF
    assert alu_compute(Opcode.SUB, a, b) == (a - b) & 0xFFFFFFFF


@given(_U32, _U32)
def test_logic_ops(a, b):
    assert alu_compute(Opcode.AND, a, b) == a & b
    assert alu_compute(Opcode.OR, a, b) == a | b
    assert alu_compute(Opcode.XOR, a, b) == a ^ b


@given(_U32, st.integers(0, 31))
def test_shifts(a, shift):
    assert alu_compute(Opcode.SLL, a, shift) == (a << shift) & 0xFFFFFFFF
    assert alu_compute(Opcode.SRL, a, shift) == a >> shift
    assert alu_compute(Opcode.SRA, a, shift) == to_unsigned(to_signed(a) >> shift)


@given(_U32, _U32)
def test_comparison_set_ops(a, b):
    assert alu_compute(Opcode.SLT, a, b) == (1 if to_signed(a) < to_signed(b) else 0)
    assert alu_compute(Opcode.SLTU, a, b) == (1 if a < b else 0)
    assert alu_compute(Opcode.SEQ, a, b) == (1 if a == b else 0)
    assert alu_compute(Opcode.SNE, a, b) == (1 if a != b else 0)
    assert alu_compute(Opcode.SGE, a, b) == (1 if to_signed(a) >= to_signed(b) else 0)


@given(_U32, st.integers(-(1 << 15), (1 << 15) - 1))
def test_immediate_forms(a, imm):
    assert alu_compute(Opcode.ADDI, a, imm=imm) == (a + imm) & 0xFFFFFFFF
    assert alu_compute(Opcode.SLTI, a, imm=imm) == (1 if to_signed(a) < imm else 0)


def test_lui():
    assert alu_compute(Opcode.LUI, 0, imm=0x1234) == 0x12340000


@given(_U32, _U32)
def test_branch_directions_consistent_with_set_ops(a, b):
    assert branch_taken(Opcode.BEQ, a, b) == (a == b)
    assert branch_taken(Opcode.BNE, a, b) == (a != b)
    assert branch_taken(Opcode.BLT, a, b) == (to_signed(a) < to_signed(b))
    assert branch_taken(Opcode.BGE, a, b) == (to_signed(a) >= to_signed(b))
    assert branch_taken(Opcode.BLTU, a, b) == (a < b)
    assert branch_taken(Opcode.BGEU, a, b) == (a >= b)


def test_non_alu_opcode_rejected():
    with pytest.raises(ValueError):
        alu_compute(Opcode.LW, 0, 0)


@given(_U32, _U32)
def test_mul_matches_signed_product(a, b):
    expected = to_unsigned(to_signed(a) * to_signed(b))
    assert alu_compute(Opcode.MUL, a, b) == expected


def _trunc_div(a, b):
    """C-style division of the signed 32-bit readings; x / 0 -> 0."""
    a, b = to_signed(a), to_signed(b)
    return to_unsigned(int(Fraction(a, b))) if b else 0


def _trunc_rem(a, b):
    """C-style remainder of the signed 32-bit readings; x % 0 -> x."""
    a, b = to_signed(a), to_signed(b)
    return to_unsigned(a - b * int(Fraction(a, b))) if b else to_unsigned(a)


#: Reference formulas for every ALU opcode, from the 32-bit helpers.
_REFERENCE = {
    Opcode.ADD: lambda a, b, imm: to_unsigned(a + b),
    Opcode.SUB: lambda a, b, imm: to_unsigned(a - b),
    Opcode.MUL: lambda a, b, imm: to_unsigned(to_signed(a) * to_signed(b)),
    Opcode.DIV: lambda a, b, imm: _trunc_div(a, b),
    Opcode.REM: lambda a, b, imm: _trunc_rem(a, b),
    Opcode.AND: lambda a, b, imm: to_unsigned(a) & to_unsigned(b),
    Opcode.OR: lambda a, b, imm: to_unsigned(a) | to_unsigned(b),
    Opcode.XOR: lambda a, b, imm: to_unsigned(a) ^ to_unsigned(b),
    Opcode.SLL: lambda a, b, imm: to_unsigned(to_unsigned(a) << b % 32),
    Opcode.SRL: lambda a, b, imm: to_unsigned(a) >> b % 32,
    Opcode.SRA: lambda a, b, imm: to_unsigned(to_signed(a) >> b % 32),
    Opcode.SLT: lambda a, b, imm: int(to_signed(a) < to_signed(b)),
    Opcode.SLTU: lambda a, b, imm: int(to_unsigned(a) < to_unsigned(b)),
    Opcode.SEQ: lambda a, b, imm: int(to_unsigned(a) == to_unsigned(b)),
    Opcode.SNE: lambda a, b, imm: int(to_unsigned(a) != to_unsigned(b)),
    Opcode.SGE: lambda a, b, imm: int(to_signed(a) >= to_signed(b)),
    Opcode.ADDI: lambda a, b, imm: to_unsigned(a + imm),
    Opcode.ANDI: lambda a, b, imm: to_unsigned(a) & to_unsigned(imm),
    Opcode.ORI: lambda a, b, imm: to_unsigned(a) | to_unsigned(imm),
    Opcode.XORI: lambda a, b, imm: to_unsigned(a) ^ to_unsigned(imm),
    Opcode.SLLI: lambda a, b, imm: to_unsigned(to_unsigned(a) << imm % 32),
    Opcode.SRLI: lambda a, b, imm: to_unsigned(a) >> imm % 32,
    Opcode.SRAI: lambda a, b, imm: to_unsigned(to_signed(a) >> imm % 32),
    Opcode.SLTI: lambda a, b, imm: int(to_signed(a) < imm),
    Opcode.SEQI: lambda a, b, imm: int(to_signed(a) == imm),
    Opcode.SNEI: lambda a, b, imm: int(to_signed(a) != imm),
    Opcode.LUI: lambda a, b, imm: to_unsigned(imm * 65536),
}

#: 32-bit register values, sign-extended immediates, and any wider int.
_OPERAND = st.one_of(
    _U32,
    st.integers(-(1 << 15), (1 << 15) - 1),
    st.sampled_from([0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, -1, 1 << 32]),
    st.integers(),
)


def test_reference_covers_every_alu_opcode():
    assert set(_REFERENCE) == ALU_OPCODES
    for opcode in Opcode:
        if opcode not in ALU_OPCODES:
            assert alu_fn(opcode) is None
    assert alu_fn(Opcode.CMOVZ) is None and alu_fn(Opcode.CMOVNZ) is None


@pytest.mark.parametrize("opcode", sorted(ALU_OPCODES, key=lambda op: op.name),
                         ids=lambda op: op.name)
@given(a=_OPERAND, b=_OPERAND, imm=_OPERAND)
def test_every_alu_opcode_matches_its_reference(opcode, a, b, imm):
    expected = _REFERENCE[opcode](a, b, imm)
    assert 0 <= expected <= 0xFFFFFFFF
    assert alu_fn(opcode)(a, b, imm) == expected
    assert alu_compute(opcode, a, b, imm) == expected


#: Reference directions for every conditional branch, from the helpers.
_BRANCH_REFERENCE = {
    Opcode.BEQ: lambda a, b: to_unsigned(a) == to_unsigned(b),
    Opcode.BNE: lambda a, b: to_unsigned(a) != to_unsigned(b),
    Opcode.BLT: lambda a, b: to_signed(a) < to_signed(b),
    Opcode.BGE: lambda a, b: to_signed(a) >= to_signed(b),
    Opcode.BLTU: lambda a, b: to_unsigned(a) < to_unsigned(b),
    Opcode.BGEU: lambda a, b: to_unsigned(a) >= to_unsigned(b),
}

#: Sign and wrap boundaries, and values above 2**32 that alias them.
_BRANCH_EDGES = (0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, -1,
                 1 << 32, (1 << 32) + 1, (1 << 32) + 0x80000000,
                 (1 << 33) - 1, (1 << 40) + 0x7FFFFFFF)
_BRANCH_OPCODES = sorted(_BRANCH_REFERENCE, key=lambda op: op.name)


def test_branch_reference_covers_every_branch_opcode():
    branches = {op for op in Opcode if branch_fn(op) is not None}
    assert branches == set(_BRANCH_REFERENCE)


@pytest.mark.parametrize("opcode", _BRANCH_OPCODES, ids=lambda op: op.name)
def test_every_branch_opcode_matches_its_reference_on_edges(opcode):
    fn = branch_fn(opcode)
    for a in _BRANCH_EDGES:
        for b in _BRANCH_EDGES:
            expected = _BRANCH_REFERENCE[opcode](a, b)
            assert fn(a, b) is expected, (opcode, a, b)
            assert branch_taken(opcode, a, b) is expected


@pytest.mark.parametrize("opcode", _BRANCH_OPCODES, ids=lambda op: op.name)
@given(a=_OPERAND, b=_OPERAND)
def test_every_branch_opcode_matches_its_reference(opcode, a, b):
    assert branch_fn(opcode)(a, b) is _BRANCH_REFERENCE[opcode](a, b)
