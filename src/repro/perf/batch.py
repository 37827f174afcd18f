"""Batched lockstep execution of independent functional simulation points.

A parameter sweep is N *independent* functional machines; running them as
N processes pays process spawn, import and IPC cost per point, which for
functional-only work (length prescans, architectural-outcome sweeps,
sampled warm-up studies) dwarfs the work itself.
:class:`BatchedFunctionalExecutor` advances all N points *in lockstep*
inside one process: each round, every active lane retires one
instruction, so the points progress together (warp-style) and a sweep
over thousands of short microbenchmarks becomes one tight loop.

Faithfulness is by construction, not by reimplementation: every lane is
a real :class:`~repro.arch.executor.FunctionalExecutor` and each lockstep
round calls the lane's own compiled per-PC handler — the architectural
results are *identical* to running the scalar executors one after
another (the divergence tests assert this).  Lanes halt independently: a
lane that traps or halts early leaves the active set without disturbing
its neighbours, and its retire count freezes where it stopped.

The cross-lane bookkeeping — retire counters, halt mask, per-lane
budgets — is kept struct-of-arrays in plain python lists: the lockstep
loop touches one lane at a time, where list indexing beats NumPy
scalar access.  The per-lane register files and memories remain
ordinary :class:`ArchState` objects (array-of-struct), which is what
keeps the scalar handlers directly reusable.
"""

from repro.arch.executor import FunctionalExecutor
from repro.arch.state import ArchState


class BatchedFunctionalExecutor:
    """Advance N independent functional points in lockstep rounds."""

    def __init__(self, points, max_instructions=100_000_000):
        """*points* is an iterable of ``(program, state)`` pairs; a
        ``None`` state gets a fresh :class:`ArchState` for its program.
        Already-constructed :class:`FunctionalExecutor` lanes are also
        accepted in place of a pair."""
        self.lanes = []
        for point in points:
            if isinstance(point, FunctionalExecutor):
                self.lanes.append(point)
                continue
            program, state = point
            if state is None:
                state = ArchState(program)
            self.lanes.append(
                FunctionalExecutor(program, state, max_instructions)
            )
        self._retired = [0] * len(self.lanes)
        self._halted = [False] * len(self.lanes)

    @property
    def width(self):
        """Number of lanes (the batch width)."""
        return len(self.lanes)

    @property
    def active(self):
        """Number of lanes still running."""
        return self.width - sum(self._halted)

    def retired(self):
        """Per-lane retired instruction counts (a copy)."""
        return list(self._retired)

    def halted(self):
        """Per-lane halt flags (a copy)."""
        return list(self._halted)

    def step(self):
        """One lockstep round: every active lane retires one instruction.

        Returns the number of lanes that advanced (0 when everything has
        halted).
        """
        advanced = 0
        halted = self._halted
        retired = self._retired
        for index, lane in enumerate(self.lanes):
            if halted[index]:
                continue
            if lane.step() is None:
                halted[index] = True
            else:
                retired[index] += 1
                advanced += 1
        return advanced

    def run(self, max_instructions=None):
        """Run every lane in lockstep to halt (or its budget).

        *max_instructions* is a per-lane cap on instructions retired by
        this call (``None`` = each lane's construction-time limit).
        Returns the per-lane retire counts of this call (a list).
        """
        width = self.width
        before = self.retired()
        if max_instructions is not None:
            caps = [max_instructions] * width
        else:
            caps = [lane.max_instructions for lane in self.lanes]
        budgets = [self._retired[i] + caps[i] for i in range(width)]
        halted = self._halted
        retired = self._retired
        # The active set is compacted only when membership changes, so
        # the steady-state inner loop touches running lanes only.
        active = [
            i for i in range(width) if not halted[i] and retired[i] < budgets[i]
        ]
        while active:
            dropped = False
            for index in active:
                if self.lanes[index].step() is None:
                    halted[index] = True
                    dropped = True
                    continue
                retired[index] += 1
                if retired[index] >= budgets[index]:
                    dropped = True
            if dropped:
                active = [
                    i for i in active
                    if not halted[i] and retired[i] < budgets[i]
                ]
        return [after - b for after, b in zip(self.retired(), before)]

