"""Direction oracle for perfect branch prediction.

Built from a functional pre-run: for every static conditional branch we
record the sequence of outcomes in retirement order.  At fetch, an
oracle-predicted branch consumes the next outcome for its PC; on the
correct path per-PC fetch order equals retirement order, so the served
direction is exact.  Wrong-path consumption is undone by the same
snapshot/restore discipline as predictor history.

Used for the paper's "Perfect Prediction" configuration (all branches)
and "Base + PerfectCFD" (only the separable branches' PCs — Figure 19).
"""

from collections import defaultdict

from repro.arch.executor import FunctionalExecutor
from repro.arch.state import ArchState
from repro.isa.opcodes import OpClass

_BRANCH = OpClass.BRANCH  # bound once: an enum-metaclass lookup per use


class DirectionOracle:
    """Per-static-PC branch outcome FIFOs with checkpointable cursors."""

    def __init__(self, outcomes):
        self._outcomes = outcomes  # pc -> list of bools (retire order)
        self._cursors = defaultdict(int)
        self.exhausted = 0

    @classmethod
    def build(cls, program, max_instructions, state_kwargs=None):
        """Functionally pre-run *program* and harvest branch outcomes.

        The pre-run extends past *max_instructions* by a slack margin so
        the cycle core never outruns the recorded trace.
        """
        outcomes = defaultdict(list)
        executor = FunctionalExecutor(
            program, ArchState(program, **(state_kwargs or {}))
        )

        def observe(record):
            if record.inst.info.opclass is _BRANCH:
                outcomes[record.pc].append(bool(record.taken))

        executor.run(max_instructions + 10_000, observer=observe)
        return cls(dict(outcomes))

    def knows(self, pc):
        return pc in self._outcomes

    def predict(self, pc):
        """Consume and return the next outcome for *pc* (False if unknown)."""
        seq = self._outcomes.get(pc)
        if seq is None:
            return False
        cursor = self._cursors[pc]
        if cursor >= len(seq):
            self.exhausted += 1
            return False
        self._cursors[pc] = cursor + 1
        return seq[cursor]

    def snapshot(self):
        return dict(self._cursors)

    def restore(self, snapshot):
        self._cursors = defaultdict(int, snapshot)

    def reapply(self, pc):
        """Re-consume *pc*'s outcome after a restore (recovery replay)."""
        self._cursors[pc] += 1
