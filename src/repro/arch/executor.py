"""Functional (timing-free) interpreter for DRISC programs.

This is the project's oracle: the OOO cycle simulator must retire exactly
the instruction stream this interpreter produces and reach the same final
architectural state.  It is also the substrate for the PIN-style branch
profiler (:mod:`repro.profiling`), which observes every retired control
transfer through :meth:`FunctionalExecutor.step`'s return record.

Every opcode's effect is defined once, in ``_BODIES``: the inside of a
per-PC handler that ends each path by naming the :class:`RetireRecord`
fields it produced.  :func:`compile_handlers` turns the definitions into
handler factories under an *exit protocol*, the code that replaces those
endings.  :class:`FunctionalExecutor`'s protocol builds the record;
:mod:`repro.core.warm`'s appends the warm-trace events instead, so a
functional pre-scan executes and records each instruction in one call.
The definitions are compiled once per protocol, not per program: a
program's handlers are closures made per PC.

Save/Restore of the CFD queues serialize as one 32-bit word per element
(length word first); the paper packs predicates as bits, but the layout is
explicitly implementation-defined by the ISA, so word granularity is a
legal (and simpler) choice.
"""

import re
import textwrap
from dataclasses import dataclass
from typing import Optional

from repro.arch.semantics import ALU_OPCODES, alu_fn, branch_fn
from repro.arch.state import ArchState
from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode


@dataclass(slots=True)
class RetireRecord:
    """What one retired instruction did (for profilers and tests)."""

    pc: int
    inst: Instruction
    taken: Optional[bool] = None  # branches only
    target: Optional[int] = None  # taken branches / jumps
    mem_addr: Optional[int] = None  # loads/stores/prefetches
    value: Optional[int] = None  # rd write or store data


def _save_queue(memory, queue, addr):
    for offset, word in enumerate(queue.save_image()):
        memory.store_word(addr + 4 * offset, word)


def _restore_queue(memory, queue, addr):
    length = memory.load_word(addr)
    image = [length]
    for offset in range(length):
        image.append(memory.load_word(addr + 4 * (offset + 1)))
    queue.restore_image(image)


#: Each opcode's effect, written once as the body of ``handler(state)``.
#: A body reads the instruction's pre-decoded fields (``rd``, ``rs1``,
#: ``rs2``, ``imm``, ``target``, ``next_pc``) and ``op``, the opcode's
#: semantic function or variant flag (``_OPERATIONS``).  Registers read
#: as 0 when the field is r0 or absent; writes to r0 are dropped,
#: mirroring ``ArchState.write_reg``.  Every path sets ``state.pc`` and
#: ends in ``return retire(taken, dest, addr, value)``, the record fields
#: it produced, or, for ``halt``, in ``return halt()``.  Exit arguments
#: hold no commas and have no side effects: a protocol may drop them.
_BODIES = {
    "alu": """
        regs = state.regs
        value = op(regs[rs1] if rs1 else 0, regs[rs2] if rs2 else 0, imm)
        if rd:
            regs[rd] = value
        state.pc = next_pc
        return retire(None, None, None, value)
    """,
    # op: move when rs2 is zero (CMOVZ) or nonzero (CMOVNZ).
    "cmov": """
        regs = state.regs
        if ((regs[rs2] if rs2 else 0) == 0) == op and rd:
            regs[rd] = regs[rs1] if rs1 else 0
        state.pc = next_pc
        return retire(None, None, None, regs[rd] if rd else 0)
    """,
    "lw": """
        regs = state.regs
        addr = ((regs[rs1] if rs1 else 0) + imm) & 0xFFFFFFFF
        value = state.memory.load_word(addr)
        if rd:
            regs[rd] = value & 0xFFFFFFFF
        state.pc = next_pc
        return retire(None, None, addr, value)
    """,
    # op: sign-extend (LB) or not (LBU).
    "lb": """
        regs = state.regs
        addr = ((regs[rs1] if rs1 else 0) + imm) & 0xFFFFFFFF
        value = state.memory.load_byte(addr)
        if op and value & 0x80:
            value |= 0xFFFFFF00
        if rd:
            regs[rd] = value
        state.pc = next_pc
        return retire(None, None, addr, value)
    """,
    "sw": """
        regs = state.regs
        addr = ((regs[rs1] if rs1 else 0) + imm) & 0xFFFFFFFF
        value = regs[rs2] if rs2 else 0
        state.memory.store_word(addr, value)
        state.pc = next_pc
        return retire(None, None, addr, value)
    """,
    "sb": """
        regs = state.regs
        addr = ((regs[rs1] if rs1 else 0) + imm) & 0xFFFFFFFF
        value = regs[rs2] if rs2 else 0
        state.memory.store_byte(addr, value)
        state.pc = next_pc
        return retire(None, None, addr, value)
    """,
    "prefetch": """
        addr = ((state.regs[rs1] if rs1 else 0) + imm) & 0xFFFFFFFF
        state.pc = next_pc
        return retire(None, None, addr, None)
    """,
    "branch": """
        regs = state.regs
        if op(regs[rs1] if rs1 else 0, regs[rs2] if rs2 else 0):
            state.pc = target
            return retire(True, target, None, None)
        state.pc = next_pc
        return retire(False, None, None, None)
    """,
    "j": """
        state.pc = target
        return retire(True, target, None, None)
    """,
    "jal": """
        if rd:
            state.regs[rd] = next_pc
        state.pc = target
        return retire(True, target, None, None)
    """,
    "jalr": """
        regs = state.regs
        if rd:
            regs[rd] = next_pc
        dest = regs[rs1] if rs1 else 0
        state.pc = dest
        return retire(True, dest, None, None)
    """,
    "halt": """
        state.halted = True
        state.pc = next_pc
        return halt()
    """,
    "nop": """
        state.pc = next_pc
        return retire(None, None, None, None)
    """,
    "push_bq": """
        state.bq.push(state.regs[rs1] if rs1 else 0)
        state.pc = next_pc
        return retire(None, None, None, None)
    """,
    "b_bq": """
        if state.bq.pop():
            state.pc = target
            return retire(True, target, None, None)
        state.pc = next_pc
        return retire(False, None, None, None)
    """,
    "mark": """
        state.bq.mark()
        state.pc = next_pc
        return retire(None, None, None, None)
    """,
    "forward": """
        value = state.bq.forward()
        state.pc = next_pc
        return retire(None, None, None, value)
    """,
    "push_vq": """
        state.vq.push(state.regs[rs1] if rs1 else 0)
        state.pc = next_pc
        return retire(None, None, None, None)
    """,
    "pop_vq": """
        value = state.vq.pop()
        if rd:
            state.regs[rd] = value & 0xFFFFFFFF
        state.pc = next_pc
        return retire(None, None, None, value)
    """,
    "push_tq": """
        state.tq.push(state.regs[rs1] if rs1 else 0)
        state.pc = next_pc
        return retire(None, None, None, None)
    """,
    "pop_tq": """
        count, overflow = state.tq.pop()
        state.tcr = tcr = 0 if overflow else count
        state.pc = next_pc
        return retire(None, None, None, tcr)
    """,
    "b_tcr": """
        if state.tcr:
            state.tcr -= 1
            state.pc = target
            return retire(True, target, None, None)
        state.pc = next_pc
        return retire(False, None, None, None)
    """,
    "pop_tq_bov": """
        count, overflow = state.tq.pop()
        state.tcr = count
        if overflow:
            state.pc = target
            return retire(True, target, None, None)
        state.pc = next_pc
        return retire(False, None, None, None)
    """,
    # op: the queue's ArchState attribute ("bq", "vq" or "tq").
    "save": """
        save_queue(state.memory, getattr(state, op),
                   (state.regs[rs1] if rs1 else 0) + imm)
        state.pc = next_pc
        return retire(None, None, None, None)
    """,
    "restore": """
        restore_queue(state.memory, getattr(state, op),
                      (state.regs[rs1] if rs1 else 0) + imm)
        state.pc = next_pc
        return retire(None, None, None, None)
    """,
}

#: ``opcode -> (body, op)`` for every opcode: which definition executes
#: it, and its ``op`` binding.  ALU and branch arithmetic come from
#: :mod:`repro.arch.semantics`.
_OPERATIONS = {
    **{opcode: ("alu", alu_fn(opcode)) for opcode in ALU_OPCODES},
    **{
        opcode: ("branch", branch_fn(opcode))
        for opcode in Opcode
        if branch_fn(opcode) is not None
    },
    Opcode.CMOVZ: ("cmov", True),
    Opcode.CMOVNZ: ("cmov", False),
    Opcode.LW: ("lw", None),
    Opcode.LB: ("lb", True),
    Opcode.LBU: ("lb", False),
    Opcode.SW: ("sw", None),
    Opcode.SB: ("sb", None),
    Opcode.PREFETCH: ("prefetch", None),
    Opcode.J: ("j", None),
    Opcode.JAL: ("jal", None),
    Opcode.JALR: ("jalr", None),
    Opcode.HALT: ("halt", None),
    Opcode.NOP: ("nop", None),
    Opcode.PUSH_BQ: ("push_bq", None),
    Opcode.B_BQ: ("b_bq", None),
    Opcode.MARK: ("mark", None),
    Opcode.FORWARD: ("forward", None),
    Opcode.PUSH_VQ: ("push_vq", None),
    Opcode.POP_VQ: ("pop_vq", None),
    Opcode.PUSH_TQ: ("push_tq", None),
    Opcode.POP_TQ: ("pop_tq", None),
    Opcode.B_TCR: ("b_tcr", None),
    Opcode.POP_TQ_BOV: ("pop_tq_bov", None),
    Opcode.SAVE_BQ: ("save", "bq"),
    Opcode.RESTORE_BQ: ("restore", "bq"),
    Opcode.SAVE_VQ: ("save", "vq"),
    Opcode.RESTORE_VQ: ("restore", "vq"),
    Opcode.SAVE_TQ: ("save", "tq"),
    Opcode.RESTORE_TQ: ("restore", "tq"),
}

_EXIT = re.compile(r"( *)return (retire|halt)\((.*)\)")

#: Names the compiled bodies may use besides their parameters.
_NAMESPACE = {
    "RetireRecord": RetireRecord,
    "save_queue": _save_queue,
    "restore_queue": _restore_queue,
}


def compile_handlers(exit_code, params=(), prologue=()):
    """Compile every opcode definition under one exit protocol.

    *exit_code(kind, args)* returns the statements that replace one exit
    of a body: *kind* is ``"retire"`` or ``"halt"`` and *args* the exit's
    argument expressions as strings.  The statements may use *params*,
    extra per-PC factory arguments.  *prologue* statements open every
    handler.

    Returns ``make(pc, inst, *params) -> handler``, which makes the
    ``handler(state)`` closure for the instruction at one PC.  Compile
    once per protocol and call ``make`` per PC: the compile is the costly
    part.
    """
    head = ", ".join(
        ("pc", "inst", "rd", "rs1", "rs2", "imm", "target", "next_pc", "op")
        + tuple(params)
    )
    source = []
    for name, body in _BODIES.items():
        source.append("def make_%s(%s):" % (name, head))
        source.append("    def handler(state):")
        for line in list(prologue) + textwrap.dedent(body).strip().splitlines():
            match = _EXIT.fullmatch(line)
            if match is None:
                source.append(" " * 8 + line)
                continue
            indent, kind, args = match.groups()
            args = [arg.strip() for arg in args.split(",")] if args else []
            for statement in exit_code(kind, args):
                source.append(" " * 8 + indent + statement)
        source.append("    return handler")
    namespace = dict(_NAMESPACE)
    exec("\n".join(source), namespace)
    factories = {name: namespace["make_" + name] for name in _BODIES}

    def make(pc, inst, *args):
        name, op = _OPERATIONS[inst.opcode]
        return factories[name](
            pc, inst, inst.rd, inst.rs1, inst.rs2, inst.imm, inst.target,
            pc + 1, op, *args,
        )

    return make


def _record_exit(kind, args):
    """:meth:`FunctionalExecutor.step`'s protocol: return the record."""
    if kind == "halt":
        return ["return RetireRecord(pc, inst)"]
    return ["return RetireRecord(pc, inst, %s)" % ", ".join(args)]


_make_record_handler = compile_handlers(_record_exit)


class FunctionalExecutor:
    """Executes a program instruction-at-a-time on an :class:`ArchState`."""

    def __init__(self, program, state=None, max_instructions=100_000_000):
        self.program = program
        self.state = state if state is not None else ArchState(program)
        self.max_instructions = max_instructions
        self.retired = 0
        self._code = program.code  # hot-path alias for instruction fetch
        # Per-PC compiled handlers: all opcode dispatch, operand-field
        # decoding, and register-0 special-casing is resolved once here, so
        # the hot loop is one list index + one closure call per instruction.
        self._dispatch = [
            _make_record_handler(pc, inst)
            for pc, inst in enumerate(program.code)
        ]

    def step(self):
        """Execute one instruction; return a :class:`RetireRecord`.

        Returns ``None`` when the machine is halted (explicit ``halt`` or
        the PC ran past the end of the code segment).
        """
        state = self.state
        if state.halted:
            return None
        pc = state.pc
        if 0 <= pc < len(self._code):
            record = self._dispatch[pc](state)
            self.retired += 1
            return record
        state.halted = True
        return None

    def run(self, max_instructions=None, observer=None):
        """Run to halt (or the instruction limit); return retired count.

        *observer*, when given, is called with every :class:`RetireRecord`.
        """
        limit = max_instructions if max_instructions is not None else self.max_instructions
        start = self.retired
        step = self.step
        if observer is None:
            while self.retired - start < limit:
                if step() is None:
                    break
        else:
            while self.retired - start < limit:
                record = step()
                if record is None:
                    break
                observer(record)
        return self.retired - start


def run_program(program, max_instructions=100_000_000, **state_kwargs):
    """Convenience: execute *program* to completion; return the executor."""
    executor = FunctionalExecutor(
        program, ArchState(program, **state_kwargs), max_instructions
    )
    executor.run()
    return executor
