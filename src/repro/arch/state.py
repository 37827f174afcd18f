"""Complete architectural state of a DRISC machine.

Holds the PC, 32 general-purpose registers (r0 hardwired to zero), memory,
the three CFD queues (BQ/VQ/TQ), and the trip-count register (TCR).  Both
the functional executor and the cycle-level core retire into an
:class:`ArchState`; equality between the two after a run is the principal
correctness oracle of the project.
"""

from repro.arch.memory import Memory
from repro.arch.queues import BranchQueue, TripCountQueue, ValueQueue
from repro.isa.instructions import NUM_GPRS, ZERO_REG


class ArchState:
    """Architectural machine state."""

    def __init__(self, program=None, bq_size=None, vq_size=None, tq_size=None,
                 tq_bits=None):
        bq_kwargs = {} if bq_size is None else {"size": bq_size}
        vq_kwargs = {} if vq_size is None else {"size": vq_size}
        tq_kwargs = {}
        if tq_size is not None:
            tq_kwargs["size"] = tq_size
        if tq_bits is not None:
            tq_kwargs["bits"] = tq_bits
        self.regs = [0] * NUM_GPRS
        self.memory = Memory()
        self.bq = BranchQueue(**bq_kwargs)
        self.vq = ValueQueue(**vq_kwargs)
        self.tq = TripCountQueue(**tq_kwargs)
        self.tcr = 0
        self.pc = 0
        self.halted = False
        if program is not None:
            self.load_program(program)

    def load_program(self, program):
        """Install *program*'s data image and entry point.

        The image is copied, never aliased, so machines stay
        independent; into an empty memory that is one array copy.
        """
        self.memory.load_image(program.data)
        self.pc = program.entry

    def read_reg(self, reg):
        """Read GPR *reg* (r0 always reads 0)."""
        return 0 if reg == ZERO_REG else self.regs[reg]

    def write_reg(self, reg, value):
        """Write GPR *reg* (writes to r0 are discarded)."""
        if reg != ZERO_REG:
            self.regs[reg] = value & 0xFFFFFFFF

    def snapshot(self):
        """Deep copy for checkpoint/compare purposes."""
        other = ArchState()
        other.regs = list(self.regs)
        other.memory = self.memory.copy()
        other.bq = BranchQueue(self.bq.size)
        other.bq.copy_state_from(self.bq)
        other.bq._mark = self.bq._mark
        other.vq = ValueQueue(self.vq.size)
        other.vq.copy_state_from(self.vq)
        other.tq = TripCountQueue(self.tq.size, self.tq.bits, self.tq.strict)
        other.tq.copy_state_from(self.tq)
        other.tcr = self.tcr
        other.pc = self.pc
        other.halted = self.halted
        return other

    def same_architectural_state(self, other, compare_pc=True):
        """True when *other* has identical software-visible state.

        Compares registers, memory, queue contents, TCR, and (optionally)
        the PC.  Stream counters and marks are microarchitectural bookkeeping
        and are excluded, mirroring the paper's "only the length register is
        architected" argument.
        """
        if self.regs != other.regs:
            return False
        if self.memory != other.memory:
            return False
        if self.bq.entries() != other.bq.entries():
            return False
        if self.vq.entries() != other.vq.entries():
            return False
        if self.tq.entries() != other.tq.entries():
            return False
        if self.tcr != other.tcr:
            return False
        if compare_pc and self.pc != other.pc:
            return False
        return True

    def diff(self, other):
        """Human-readable description of state differences (for tests)."""
        notes = []
        for reg in range(NUM_GPRS):
            if self.regs[reg] != other.regs[reg]:
                notes.append(
                    "r%d: 0x%x vs 0x%x" % (reg, self.regs[reg], other.regs[reg])
                )
        mine, theirs = self.memory.words(), other.memory.words()
        for addr in sorted(set(mine) | set(theirs)):
            a, b = mine.get(addr, 0), theirs.get(addr, 0)
            if a != b:
                notes.append("mem[0x%x]: 0x%x vs 0x%x" % (addr, a, b))
        if self.bq.entries() != other.bq.entries():
            notes.append("bq: %r vs %r" % (self.bq.entries(), other.bq.entries()))
        if self.vq.entries() != other.vq.entries():
            notes.append("vq: %r vs %r" % (self.vq.entries(), other.vq.entries()))
        if self.tq.entries() != other.tq.entries():
            notes.append("tq: %r vs %r" % (self.tq.entries(), other.tq.entries()))
        if self.tcr != other.tcr:
            notes.append("tcr: %d vs %d" % (self.tcr, other.tcr))
        if self.pc != other.pc:
            notes.append("pc: %d vs %d" % (self.pc, other.pc))
        return "; ".join(notes) if notes else "identical"
