"""Perfect (oracle) direction prediction.

Perfect prediction is implemented with per-static-PC outcome FIFOs
precomputed by a functional run (see
:class:`repro.core.oracle.DirectionOracle`): on the correct path, dynamic
instances of a static branch are fetched in retirement order, so a per-PC
cursor — checkpointed and repaired together with the rest of the front-end
state — yields the true direction at fetch time.

This module's :class:`PerfectPredictor` is the standalone-usable flavour:
it serves outcomes from a preloaded per-PC outcome map and is what the
profiler uses; the cycle core recognizes ``predictor="perfect"`` in its
config and routes through its own checkpoint-aware oracle instead.
"""

from collections import defaultdict

from repro.branch.base import BranchPredictor, HistorySnapshot


class PerfectPredictor(BranchPredictor):
    """Oracle predictor fed from per-PC outcome FIFOs."""

    name = "perfect"

    def __init__(self, outcomes=None):
        # outcomes: {pc: [bool, ...]} in retirement order.
        self._outcomes = {pc: list(seq) for pc, seq in (outcomes or {}).items()}
        self._cursors = defaultdict(int)

    def predict(self, pc):
        seq = self._outcomes.get(pc)
        if seq is None:
            return False, None
        cursor = self._cursors[pc]
        if cursor >= len(seq):
            return False, None
        self._cursors[pc] = cursor + 1
        return seq[cursor], None

    def snapshot(self):
        return HistorySnapshot(dict(self._cursors))

    def restore(self, snapshot):
        self._cursors = defaultdict(int, snapshot.payload)

    def update(self, pc, taken, meta=None):
        pass
