"""Pure value semantics shared by the functional and cycle simulators.

``alu_compute`` and ``branch_taken`` are side-effect-free so the OOO core's
execute stage (which operates on physical-register values) and the
functional interpreter (which operates on architectural registers) cannot
diverge on arithmetic.
"""

from repro.arch.bits import signed_div, signed_rem, to_signed, to_unsigned
from repro.isa.opcodes import Opcode

_ALU_R = {
    Opcode.ADD: lambda a, b: a + b,
    Opcode.SUB: lambda a, b: a - b,
    Opcode.MUL: lambda a, b: to_signed(a) * to_signed(b),
    Opcode.DIV: signed_div,
    Opcode.REM: signed_rem,
    Opcode.AND: lambda a, b: a & b,
    Opcode.OR: lambda a, b: a | b,
    Opcode.XOR: lambda a, b: a ^ b,
    Opcode.SLL: lambda a, b: a << (b & 31),
    Opcode.SRL: lambda a, b: (a & 0xFFFFFFFF) >> (b & 31),
    Opcode.SRA: lambda a, b: to_signed(a) >> (b & 31),
    Opcode.SLT: lambda a, b: 1 if to_signed(a) < to_signed(b) else 0,
    Opcode.SLTU: lambda a, b: 1 if to_unsigned(a) < to_unsigned(b) else 0,
    Opcode.SEQ: lambda a, b: 1 if to_unsigned(a) == to_unsigned(b) else 0,
    Opcode.SNE: lambda a, b: 1 if to_unsigned(a) != to_unsigned(b) else 0,
    Opcode.SGE: lambda a, b: 1 if to_signed(a) >= to_signed(b) else 0,
}

_ALU_I = {
    Opcode.ADDI: lambda a, imm: a + imm,
    Opcode.ANDI: lambda a, imm: a & to_unsigned(imm),
    Opcode.ORI: lambda a, imm: a | to_unsigned(imm),
    Opcode.XORI: lambda a, imm: a ^ to_unsigned(imm),
    Opcode.SLLI: lambda a, imm: a << (imm & 31),
    Opcode.SRLI: lambda a, imm: (a & 0xFFFFFFFF) >> (imm & 31),
    Opcode.SRAI: lambda a, imm: to_signed(a) >> (imm & 31),
    Opcode.SLTI: lambda a, imm: 1 if to_signed(a) < imm else 0,
    Opcode.SEQI: lambda a, imm: 1 if to_signed(a) == imm else 0,
    Opcode.SNEI: lambda a, imm: 1 if to_signed(a) != imm else 0,
}

_BRANCH = {
    Opcode.BEQ: lambda a, b: to_unsigned(a) == to_unsigned(b),
    Opcode.BNE: lambda a, b: to_unsigned(a) != to_unsigned(b),
    Opcode.BLT: lambda a, b: to_signed(a) < to_signed(b),
    Opcode.BGE: lambda a, b: to_signed(a) >= to_signed(b),
    Opcode.BLTU: lambda a, b: to_unsigned(a) < to_unsigned(b),
    Opcode.BGEU: lambda a, b: to_unsigned(a) >= to_unsigned(b),
}


#: Every opcode ``alu_compute`` accepts (R-form, I-form, and LUI).
ALU_OPCODES = frozenset(_ALU_R) | frozenset(_ALU_I) | {Opcode.LUI}


def alu_compute(opcode, a, b=0, imm=0):
    """Compute the 32-bit result of any ALU opcode (R- or I-form)."""
    fn = _ALU_R.get(opcode)
    if fn is not None:
        return to_unsigned(fn(a, b))
    fn = _ALU_I.get(opcode)
    if fn is not None:
        return to_unsigned(fn(a, imm))
    if opcode == Opcode.LUI:
        return to_unsigned(imm << 16)
    raise ValueError("not an ALU opcode: %s" % opcode)


def alu_fn(opcode):
    """Resolved ``(a, b, imm) -> unsigned-32`` callable, or ``None``.

    Binds the opcode's semantic function once so hot loops can predecode
    the dispatch (the two dict probes in :func:`alu_compute`) per PC
    instead of per dynamic instance.  Returns ``None`` for non-ALU
    opcodes, conditional moves included (they merge with the old ``rd``
    and are handled by their callers).
    """
    fn = _ALU_R.get(opcode)
    if fn is not None:
        return lambda a, b, imm, _fn=fn: to_unsigned(_fn(a, b))
    fn = _ALU_I.get(opcode)
    if fn is not None:
        return lambda a, b, imm, _fn=fn: to_unsigned(_fn(a, imm))
    if opcode == Opcode.LUI:
        return lambda a, b, imm: to_unsigned(imm << 16)
    return None


def branch_fn(opcode):
    """The ``(a, b) -> bool`` comparison for a conditional branch opcode,
    or ``None`` when *opcode* is not one."""
    return _BRANCH.get(opcode)


def branch_taken(opcode, a, b):
    """Evaluate the direction of a register-comparing conditional branch."""
    return bool(_BRANCH[opcode](a, b))
