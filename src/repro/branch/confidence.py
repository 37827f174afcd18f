"""JRS confidence estimator (Jacobsen, Rotenberg, Smith).

A table of resetting counters: increment on a correct prediction, reset to
zero on a misprediction.  A branch whose counter is at/above the threshold
is *high confidence*.  The baseline core uses this to gate checkpoint
allocation (confidence-guided checkpointing, Section VI): only
low-confidence branches take one of the scarce checkpoints.

The table is indexed by PC alone: at simulated region scale,
history-hashed indexing spreads each branch over too many counters to
ever reach the confidence threshold.  So the estimator has no
speculative state to snapshot or repair.
"""


class JRSConfidenceEstimator:
    """Resetting-counter confidence estimator indexed by PC."""

    def __init__(self, table_bits=12, counter_max=15, threshold=8):
        self._mask = (1 << table_bits) - 1
        self._counter_max = counter_max
        self.threshold = threshold
        self._table = [0] * (1 << table_bits)

    def is_confident(self, pc):
        """True when the branch at *pc* is predicted with high confidence."""
        return self._table[pc & self._mask] >= self.threshold

    def update(self, pc, correct):
        """Train with whether the overall prediction was *correct*."""
        idx = pc & self._mask
        if correct:
            v = self._table[idx]
            self._table[idx] = v + (v < self._counter_max)
        else:
            self._table[idx] = 0
