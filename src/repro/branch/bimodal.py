"""Bimodal predictor: per-PC 2-bit saturating counters."""

from repro.branch.base import BranchPredictor


class BimodalPredictor(BranchPredictor):
    """Classic Smith predictor: table of 2-bit counters indexed by PC."""

    name = "bimodal"

    def __init__(self, table_bits=14):
        self.table_bits = table_bits
        self._mask = (1 << table_bits) - 1
        self._table = [2] * (1 << table_bits)  # weakly taken

    def _index(self, pc):
        return pc & self._mask

    def predict(self, pc):
        return self._table[self._index(pc)] >= 2, None

    def update(self, pc, taken, meta=None):
        idx = self._index(pc)
        v = self._table[idx]
        self._table[idx] = v + (v < 3) if taken else v - (v > 0)

    def stats(self):
        return {"table_entries": len(self._table)}
