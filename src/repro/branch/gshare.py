"""GShare predictor: global history XOR PC indexing 2-bit counters."""

from repro.branch.base import BranchPredictor, HistorySnapshot


class GSharePredictor(BranchPredictor):
    """McFarling's gshare with speculative history and repair."""

    name = "gshare"

    def __init__(self, table_bits=14, history_bits=12):
        self.table_bits = table_bits
        self.history_bits = history_bits
        self._mask = (1 << table_bits) - 1
        self._history_mask = (1 << history_bits) - 1
        self._table = [2] * (1 << table_bits)
        self._history = 0  # speculative global history

    def _index(self, pc, history):
        return (pc ^ history) & self._mask

    def predict(self, pc):
        idx = self._index(pc, self._history)
        # meta carries the index so retirement training touches the entry
        # that was actually consulted, even if history was repaired since.
        return self._table[idx] >= 2, idx

    def speculative_update(self, pc, taken):
        self._history = ((self._history << 1) | (1 if taken else 0)) & self._history_mask

    def snapshot(self):
        return HistorySnapshot(self._history)

    def restore(self, snapshot):
        self._history = snapshot.payload

    def update(self, pc, taken, meta=None):
        idx = meta if meta is not None else self._index(pc, self._history)
        v = self._table[idx]
        self._table[idx] = v + (v < 3) if taken else v - (v > 0)

    def stats(self):
        return {"table_entries": len(self._table), "history_bits": self.history_bits}
