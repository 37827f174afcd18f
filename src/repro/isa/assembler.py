"""Two-pass assembler for DRISC assembly text.

Supported syntax::

    # comment                 ; also a comment
    .data
    arr:    .word 1, 2, -3, 0x10
    buf:    .space 16             # 16 zeroed words
    .text
    main:
        la   r1, arr              # pseudo: load address
        li   r2, 100000           # pseudo: load immediate (1-2 insts)
        mv   r3, r2               # pseudo: add r3, r2, r0
    loop:
        lw   r4, 0(r1)
        beqz r4, skip             # pseudo: beq r4, r0, skip
        addi r3, r3, -1
    skip:
        bne  r3, r0, loop
        halt

Pseudo-instructions (``li``, ``la``, ``mv``, ``beqz``, ``bnez``, ``not``,
``neg``) expand to one or two base instructions; everything else maps 1:1
onto :class:`~repro.isa.opcodes.Opcode` mnemonics.
"""

import re
from array import array

from repro.arch.memory import Memory
from repro.errors import AssemblerError
from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode, opcode_for_mnemonic, op_info
from repro.isa.program import DATA_BASE, Program

_MEM_OPERAND = re.compile(r"^(-?\w+)\((r\d+)\)$")
_SYM_PLUS = re.compile(r"^([A-Za-z_.$][\w.$]*)\s*([+-])\s*(\d+|0x[0-9a-fA-F]+)$")

_IMM16_MIN = -(1 << 15)
_IMM16_MAX = (1 << 15) - 1


def _parse_register(text, line_number):
    text = text.strip().lower()
    if not text.startswith("r"):
        raise AssemblerError("expected register, got %r" % text, line_number)
    try:
        reg = int(text[1:])
    except ValueError:
        raise AssemblerError("bad register %r" % text, line_number) from None
    if not 0 <= reg < 32:
        raise AssemblerError("register out of range: %r" % text, line_number)
    return reg


def _parse_int(text, line_number):
    try:
        return int(text, 0)
    except ValueError:
        raise AssemblerError(
            "expected integer, got %r" % text, line_number) from None


def _strip_comment(line):
    for marker in ("#", ";"):
        idx = line.find(marker)
        if idx >= 0:
            line = line[:idx]
    return line.strip()


def _split_operands(text):
    return [part.strip() for part in text.split(",")] if text else []


class _PendingInstruction:
    """An instruction parsed in pass 1, with possibly-symbolic operands."""

    def __init__(self, mnemonic, operands, line_number):
        self.mnemonic = mnemonic
        self.operands = operands
        self.line_number = line_number

    def size(self, symbols):
        """Number of base instructions this line expands to."""
        if self.mnemonic in ("li", "la"):
            try:
                value = _resolve_value(self, symbols, labels=None)
            except AssemblerError:
                # A code label: PCs always fit in one instruction.
                return 1
            return 1 if _IMM16_MIN <= value <= _IMM16_MAX else 2
        return 1


def _resolve_value(pending, symbols, labels=None):
    """Resolve the value operand of li/la.

    ``la`` accepts a data symbol (byte address), ``symbol+offset``, a code
    label (its PC index — the function-pointer idiom for ``jalr``), or a
    plain integer.
    """
    if len(pending.operands) != 2:
        raise AssemblerError(
            "%s needs 2 operands" % pending.mnemonic, pending.line_number
        )
    text = pending.operands[1]
    if pending.mnemonic == "li":
        return _parse_int(text, pending.line_number)
    match = _SYM_PLUS.match(text)
    if match:
        name, sign, offset = match.groups()
        if name not in symbols:
            raise AssemblerError("unknown symbol %r" % name, pending.line_number)
        delta = int(offset, 0)
        return symbols[name] + (delta if sign == "+" else -delta)
    if text in symbols:
        return symbols[text]
    if labels is not None and text in labels:
        return labels[text]
    # allow plain integers too ("la" with a literal address)
    return _parse_int(text, pending.line_number)


def _expand(pending, symbols, labels, pc):
    """Expand one parsed line into concrete instructions."""
    m = pending.mnemonic
    ops = pending.operands
    ln = pending.line_number

    if m in ("li", "la"):
        rd = _parse_register(ops[0], ln)
        value = _resolve_value(pending, symbols, labels)
        if _IMM16_MIN <= value <= _IMM16_MAX:
            return [Instruction(Opcode.ADDI, rd=rd, rs1=0, imm=value)]
        if not 0 <= value < (1 << 32):
            value &= 0xFFFFFFFF
        return [
            Instruction(Opcode.LUI, rd=rd, imm=(value >> 16) & 0xFFFF),
            Instruction(Opcode.ORI, rd=rd, rs1=rd, imm=value & 0xFFFF),
        ]
    if m == "mv":
        rd = _parse_register(ops[0], ln)
        rs = _parse_register(ops[1], ln)
        return [Instruction(Opcode.ADD, rd=rd, rs1=rs, rs2=0)]
    if m == "not":
        rd = _parse_register(ops[0], ln)
        rs = _parse_register(ops[1], ln)
        return [Instruction(Opcode.XORI, rd=rd, rs1=rs, imm=-1)]
    if m == "neg":
        rd = _parse_register(ops[0], ln)
        rs = _parse_register(ops[1], ln)
        return [Instruction(Opcode.SUB, rd=rd, rs1=0, rs2=rs)]
    if m in ("beqz", "bnez"):
        rs = _parse_register(ops[0], ln)
        target = _resolve_label(ops[1], labels, ln)
        opcode = Opcode.BEQ if m == "beqz" else Opcode.BNE
        return [Instruction(opcode, rs1=rs, rs2=0, target=target, label=ops[1])]

    opcode = opcode_for_mnemonic(m)
    if opcode is None:
        raise AssemblerError("unknown mnemonic %r" % m, ln)
    info = op_info(opcode)
    fmt = info.fmt
    if len(fmt) != len(ops):
        raise AssemblerError(
            "%s expects %d operands, got %d" % (m, len(fmt), len(ops)), ln
        )
    rd = rs1 = rs2 = None
    imm = 0
    target = None
    label = None
    for field, text in zip(fmt, ops):
        if field == "d":
            rd = _parse_register(text, ln)
        elif field == "s":
            rs1 = _parse_register(text, ln)
        elif field == "t":
            rs2 = _parse_register(text, ln)
        elif field == "i":
            imm = _parse_int(text, ln)
        elif field == "m":
            match = _MEM_OPERAND.match(text.replace(" ", ""))
            if not match:
                raise AssemblerError("bad memory operand %r" % text, ln)
            imm_text, reg_text = match.groups()
            imm = _parse_int(imm_text, ln)
            rs1 = _parse_register(reg_text, ln)
        elif field == "L":
            target = _resolve_label(text, labels, ln)
            label = text
    return [
        Instruction(opcode, rd=rd, rs1=rs1, rs2=rs2, imm=imm, target=target, label=label)
    ]


def _resolve_label(text, labels, line_number):
    if text in labels:
        return labels[text]
    try:
        return int(text, 0)
    except ValueError:
        raise AssemblerError("unknown label %r" % text, line_number) from None


def assemble(source, name=None):
    """Assemble DRISC *source* text into a :class:`Program`.

    Raises :class:`~repro.errors.AssemblerError` with a line number for any
    syntax or resolution problem.
    """
    in_data = False
    # The data words in layout order: the image's segment from DATA_BASE.
    segment = array("I")
    pending = []  # code section: _PendingInstruction or ("label", name)
    symbols = {}

    for line_number, raw_line in enumerate(source.splitlines(), start=1):
        line = _strip_comment(raw_line)
        if not line:
            continue
        # Peel off any leading labels ("name:").
        while True:
            match = re.match(r"^([A-Za-z_.$][\w.$]*)\s*:\s*(.*)$", line)
            if not match:
                break
            label_name, line = match.groups()
            if in_data:
                if label_name in symbols:
                    raise AssemblerError(
                        "duplicate data symbol %r" % label_name, line_number
                    )
                symbols[label_name] = DATA_BASE + 4 * len(segment)
            else:
                pending.append(("label", label_name, line_number))
            if not line:
                break
        if not line:
            continue
        if line.startswith("."):
            parts = line.split(None, 1)
            directive = parts[0]
            rest = parts[1] if len(parts) > 1 else ""
            if directive == ".data":
                in_data = True
            elif directive == ".text":
                in_data = False
            elif directive == ".word":
                if not in_data:
                    raise AssemblerError(".word outside .data", line_number)
                segment.extend(_parse_int(v, line_number) & 0xFFFFFFFF
                               for v in _split_operands(rest))
            elif directive == ".space":
                if not in_data:
                    raise AssemblerError(".space outside .data", line_number)
                count = _parse_int(rest, line_number)
                if count < 0:
                    raise AssemblerError("negative .space", line_number)
                segment.frombytes(bytes(4 * count))
            else:
                raise AssemblerError("unknown directive %r" % directive, line_number)
            continue
        if in_data:
            raise AssemblerError("instruction inside .data", line_number)
        parts = line.split(None, 1)
        mnemonic = parts[0].lower()
        operands = _split_operands(parts[1]) if len(parts) > 1 else []
        pending.append(_PendingInstruction(mnemonic, operands, line_number))

    # Pass 1.5: assign PCs (pseudo-expansion sizes now known).
    labels = {}
    pc = 0
    for item in pending:
        if isinstance(item, tuple):
            _, label_name, line_number = item
            if label_name in labels:
                raise AssemblerError("duplicate label %r" % label_name, line_number)
            labels[label_name] = pc
        else:
            pc += item.size(symbols)

    # Pass 2: expand and resolve.
    code = []
    for item in pending:
        if isinstance(item, tuple):
            continue
        code.extend(_expand(item, symbols, labels, len(code)))

    entry = labels.get("main", 0)
    program = Program(
        code=code, data=Memory.from_segment(segment), symbols=symbols,
        labels=labels, entry=entry, name=name,
    )
    problems = program.validate()
    if problems:
        raise AssemblerError("; ".join(problems))
    return program
