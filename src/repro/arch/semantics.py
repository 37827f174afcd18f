"""Pure value semantics shared by the functional and cycle simulators.

``alu_compute`` and ``branch_taken`` are side-effect-free so the OOO core's
execute stage (which operates on physical-register values) and the
functional interpreter (which operates on architectural registers) cannot
diverge on arithmetic.
"""

from repro.arch.bits import signed_div, signed_rem
from repro.isa.opcodes import Opcode

#: ``opcode -> (a, b, imm) -> unsigned 32-bit result`` for every ALU
#: opcode, R-form (``a op b``), I-form (``a op imm``) and LUI.  Operands
#: may be any int: results are masked to 32 bits, and
#: ``((x & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000`` reads the low 32
#: bits of ``x`` as signed.  Two's-complement products and sums wrap the
#: same signed or unsigned, and flipping bit 31 turns a signed
#: comparison into an unsigned one.
_ALU = {
    Opcode.ADD: lambda a, b, imm: (a + b) & 0xFFFFFFFF,
    Opcode.SUB: lambda a, b, imm: (a - b) & 0xFFFFFFFF,
    Opcode.MUL: lambda a, b, imm: (a * b) & 0xFFFFFFFF,
    Opcode.DIV: lambda a, b, imm: signed_div(a, b),
    Opcode.REM: lambda a, b, imm: signed_rem(a, b),
    Opcode.AND: lambda a, b, imm: a & b & 0xFFFFFFFF,
    Opcode.OR: lambda a, b, imm: (a | b) & 0xFFFFFFFF,
    Opcode.XOR: lambda a, b, imm: (a ^ b) & 0xFFFFFFFF,
    Opcode.SLL: lambda a, b, imm: (a << (b & 31)) & 0xFFFFFFFF,
    Opcode.SRL: lambda a, b, imm: (a & 0xFFFFFFFF) >> (b & 31),
    Opcode.SRA: lambda a, b, imm: (
        (((a & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000) >> (b & 31)
    ) & 0xFFFFFFFF,
    Opcode.SLT: lambda a, b, imm: (
        1 if ((a & 0xFFFFFFFF) ^ 0x80000000) < ((b & 0xFFFFFFFF) ^ 0x80000000)
        else 0
    ),
    Opcode.SLTU: lambda a, b, imm: (
        1 if (a & 0xFFFFFFFF) < (b & 0xFFFFFFFF) else 0
    ),
    Opcode.SEQ: lambda a, b, imm: 1 if (a - b) & 0xFFFFFFFF == 0 else 0,
    Opcode.SNE: lambda a, b, imm: 1 if (a - b) & 0xFFFFFFFF else 0,
    Opcode.SGE: lambda a, b, imm: (
        1 if ((a & 0xFFFFFFFF) ^ 0x80000000) >= ((b & 0xFFFFFFFF) ^ 0x80000000)
        else 0
    ),
    Opcode.ADDI: lambda a, b, imm: (a + imm) & 0xFFFFFFFF,
    Opcode.ANDI: lambda a, b, imm: a & imm & 0xFFFFFFFF,
    Opcode.ORI: lambda a, b, imm: (a | imm) & 0xFFFFFFFF,
    Opcode.XORI: lambda a, b, imm: (a ^ imm) & 0xFFFFFFFF,
    Opcode.SLLI: lambda a, b, imm: (a << (imm & 31)) & 0xFFFFFFFF,
    Opcode.SRLI: lambda a, b, imm: (a & 0xFFFFFFFF) >> (imm & 31),
    Opcode.SRAI: lambda a, b, imm: (
        (((a & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000) >> (imm & 31)
    ) & 0xFFFFFFFF,
    Opcode.SLTI: lambda a, b, imm: (
        1 if ((a & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000 < imm else 0
    ),
    Opcode.SEQI: lambda a, b, imm: (
        1 if ((a & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000 == imm else 0
    ),
    Opcode.SNEI: lambda a, b, imm: (
        1 if ((a & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000 != imm else 0
    ),
    Opcode.LUI: lambda a, b, imm: (imm << 16) & 0xFFFFFFFF,
}

#: ``opcode -> (a, b) -> bool`` for every conditional branch, each one
#: expression on the same 32-bit tricks as ``_ALU``: the low 32 bits of
#: ``a`` and ``b`` are equal when ``(a - b) & 0xFFFFFFFF`` is 0.
_BRANCH = {
    Opcode.BEQ: lambda a, b: (a - b) & 0xFFFFFFFF == 0,
    Opcode.BNE: lambda a, b: (a - b) & 0xFFFFFFFF != 0,
    Opcode.BLT: lambda a, b: (
        ((a & 0xFFFFFFFF) ^ 0x80000000) < ((b & 0xFFFFFFFF) ^ 0x80000000)
    ),
    Opcode.BGE: lambda a, b: (
        ((a & 0xFFFFFFFF) ^ 0x80000000) >= ((b & 0xFFFFFFFF) ^ 0x80000000)
    ),
    Opcode.BLTU: lambda a, b: (a & 0xFFFFFFFF) < (b & 0xFFFFFFFF),
    Opcode.BGEU: lambda a, b: (a & 0xFFFFFFFF) >= (b & 0xFFFFFFFF),
}


#: Every opcode ``alu_compute`` accepts (R-form, I-form, and LUI).
ALU_OPCODES = frozenset(_ALU)


def alu_compute(opcode, a, b=0, imm=0):
    """Compute the 32-bit result of any ALU opcode (R- or I-form)."""
    fn = _ALU.get(opcode)
    if fn is None:
        raise ValueError("not an ALU opcode: %s" % opcode)
    return fn(a, b, imm)


def alu_fn(opcode):
    """The opcode's ``(a, b, imm) -> unsigned-32`` callable, or ``None``.

    Hot loops predecode it per PC instead of dispatching per dynamic
    instance.  Returns ``None`` for non-ALU opcodes, conditional moves
    included (they merge with the old ``rd`` and are handled by their
    callers).
    """
    return _ALU.get(opcode)


def branch_fn(opcode):
    """The ``(a, b) -> bool`` comparison for a conditional branch opcode,
    or ``None`` when *opcode* is not one."""
    return _BRANCH.get(opcode)


def branch_taken(opcode, a, b):
    """Evaluate the direction of a register-comparing conditional branch."""
    return bool(_BRANCH[opcode](a, b))
