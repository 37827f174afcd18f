"""Per-static-branch profiling over functional execution.

Runs a program on the functional executor with a model predictor (default
ISL-TAGE, as in the paper's pintool) and records, per static branch:
execution count, taken count, mispredictions, and — because the profiler
also tracks a dataflow memory-level tag per register — the furthest
memory level feeding each mispredicted branch (Figure 2a's breakdown).
"""

from dataclasses import dataclass, field
from typing import Dict

from repro.arch.executor import FunctionalExecutor
from repro.arch.state import ArchState
from repro.branch import make_predictor
from repro.isa.instructions import NUM_GPRS
from repro.isa.opcodes import OpClass
from repro.memsys.hierarchy import MemLevel
from repro.memsys.hierarchy import MemoryHierarchy, MemoryHierarchyConfig

# Bound once: the observer below tests every retired instruction, and an
# ``OpClass.LOAD`` is an enum-metaclass lookup per use.
_LOAD, _BRANCH = OpClass.LOAD, OpClass.BRANCH


@dataclass
class BranchProfile:
    """Profile of one static branch."""

    pc: int
    executed: int = 0
    taken: int = 0
    mispredicted: int = 0
    level_breakdown: Dict[int, int] = field(default_factory=dict)

    @property
    def misprediction_rate(self):
        return self.mispredicted / self.executed if self.executed else 0.0


class BranchProfiler:
    """Profile every conditional branch of a program."""

    def __init__(self, program, predictor_name="isl_tage", track_levels=True,
                 state_kwargs=None):
        self.program = program
        self.predictor = make_predictor(predictor_name)
        self.profiles = {}
        self.total_instructions = 0
        self.total_mispredictions = 0
        self.track_levels = track_levels
        self._reg_level = [int(MemLevel.NONE)] * NUM_GPRS
        self._hierarchy = MemoryHierarchy(MemoryHierarchyConfig()) if track_levels else None
        self._state_kwargs = state_kwargs or {}

    def run(self, max_instructions=2_000_000):
        """Profile up to *max_instructions*; returns self."""
        executor = FunctionalExecutor(
            self.program, ArchState(self.program, **self._state_kwargs)
        )
        predictor = self.predictor
        profiles = self.profiles
        reg_level = self._reg_level
        hierarchy = self._hierarchy

        def observe(record):
            inst = record.inst
            opclass = inst.info.opclass
            if self.track_levels:
                if opclass is _LOAD and record.mem_addr is not None:
                    result = hierarchy.access_data(record.mem_addr)
                    if inst.rd is not None:
                        reg_level[inst.rd] = int(result.level)
                elif inst.info.writes_rd and inst.rd is not None:
                    level = 0
                    for reg in inst.source_registers():
                        if reg_level[reg] > level:
                            level = reg_level[reg]
                    reg_level[inst.rd] = level
            if opclass is not _BRANCH:
                return
            taken = bool(record.taken)
            predicted, meta = predictor.predict(record.pc)
            predictor.speculative_update(record.pc, taken)
            predictor.update(record.pc, taken, meta)
            profile = profiles.get(record.pc)
            if profile is None:
                profile = profiles[record.pc] = BranchProfile(record.pc)
            profile.executed += 1
            if taken:
                profile.taken += 1
            if predicted != taken:
                profile.mispredicted += 1
                self.total_mispredictions += 1
                if self.track_levels:
                    level = 0
                    for reg in inst.source_registers():
                        if reg_level[reg] > level:
                            level = reg_level[reg]
                    profile.level_breakdown[level] = (
                        profile.level_breakdown.get(level, 0) + 1
                    )

        self.total_instructions = executor.run(max_instructions, observer=observe)
        return self

    @property
    def mpki(self):
        if not self.total_instructions:
            return 0.0
        return 1000.0 * self.total_mispredictions / self.total_instructions

    @property
    def misprediction_rate(self):
        executed = sum(p.executed for p in self.profiles.values())
        return self.total_mispredictions / executed if executed else 0.0

    def top_branches(self, count=10):
        """Static branches sorted by misprediction contribution."""
        ranked = sorted(
            self.profiles.values(), key=lambda p: p.mispredicted, reverse=True
        )
        return ranked[:count]

    def level_fractions(self):
        """Aggregate misprediction breakdown by feeding memory level."""
        totals = {}
        for profile in self.profiles.values():
            for level, count in profile.level_breakdown.items():
                totals[level] = totals.get(level, 0) + count
        total = sum(totals.values())
        if not total:
            return {}
        return {
            MemLevel(level): count / total for level, count in sorted(totals.items())
        }


def profile_program(program, predictor_name="isl_tage",
                    max_instructions=2_000_000, **kwargs):
    """Convenience wrapper: profile and return the :class:`BranchProfiler`."""
    profiler = BranchProfiler(program, predictor_name, **kwargs)
    profiler.run(max_instructions)
    return profiler
