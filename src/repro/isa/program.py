"""The :class:`Program` container: code segment, data segment, symbols.

A program is the unit that both the functional executor and the cycle-level
simulator consume.  PCs index the code list directly (one instruction per
PC); data addresses are byte addresses into a word-granular initial image,
a :class:`~repro.arch.memory.Memory` whose dense segment starts at
:data:`DATA_BASE`.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.arch.memory import DATA_BASE, Memory
from repro.isa.instructions import Instruction, validate_instruction

__all__ = ["DATA_BASE", "Program"]


@dataclass
class Program:
    """An assembled DRISC program.

    ``data`` is the initial data image.  A ``{byte_addr: word}`` mapping
    given here is validated and made into a
    :class:`~repro.arch.memory.Memory` once, on construction.
    """

    code: List[Instruction] = field(default_factory=list)
    data: Memory = field(default_factory=Memory)
    symbols: Dict[str, int] = field(default_factory=dict)  # data labels
    labels: Dict[str, int] = field(default_factory=dict)  # code labels
    entry: int = 0
    name: Optional[str] = None

    def __post_init__(self):
        if not isinstance(self.data, Memory):
            self.data = Memory(self.data)

    def __len__(self):
        return len(self.code)

    def instruction_at(self, pc):
        """Return the instruction at code index *pc* (or None past the end)."""
        if 0 <= pc < len(self.code):
            return self.code[pc]
        return None

    def symbol(self, name):
        """Byte address of data symbol *name*."""
        return self.symbols[name]

    def label(self, name):
        """Code index (PC) of code label *name*."""
        return self.labels[name]

    def validate(self):
        """Validate every instruction; returns a list of problem strings.

        Per-instruction operand checks (including branches missing their
        target) come from :func:`validate_instruction`; this adds the
        program-level rules — branch targets in range, no stray targets
        on non-branches, and label/symbol namespaces that do not collide.
        """
        problems = []
        for pc, inst in enumerate(self.code):
            for problem in validate_instruction(inst):
                problems.append("pc %d: %s" % (pc, problem))
            if inst.info.is_branch:
                if inst.target is not None:
                    if not 0 <= inst.target < len(self.code):
                        problems.append(
                            "pc %d: target %d outside code" % (pc, inst.target)
                        )
            elif inst.target is not None:
                problems.append(
                    "pc %d: non-branch %s carries branch target %d"
                    % (pc, inst.info.mnemonic, inst.target)
                )
        for name in sorted(set(self.labels) & set(self.symbols)):
            problems.append(
                "name %r is both a code label (pc %d) and a data symbol "
                "(addr %d)" % (name, self.labels[name], self.symbols[name])
            )
        return problems

    def listing(self):
        """Human-readable disassembly listing with labels."""
        by_pc = {}
        for name, pc in self.labels.items():
            by_pc.setdefault(pc, []).append(name)
        lines = []
        for pc, inst in enumerate(self.code):
            for name in by_pc.get(pc, []):
                lines.append("%s:" % name)
            lines.append("    %4d: %s" % (pc, inst.disassemble()))
        return "\n".join(lines)
