"""Loop termination predictor (the "L" of ISL-TAGE).

Tracks, per static branch, the trip count of regular loops and predicts
the exit iteration once the count has been confirmed a few times.  The
iteration counter advances at training (retire) time; this is a modelling
simplification relative to the speculative iteration tracking of the CBP3
code, and only costs accuracy in the shadow of in-flight iterations.
"""


class _LoopEntry:
    __slots__ = ("tag", "past_iter", "current_iter", "confidence", "age")

    def __init__(self, tag):
        self.tag = tag
        self.past_iter = 0
        self.current_iter = 0
        self.confidence = 0
        self.age = 0


class LoopPredictor:
    """Direct-mapped loop predictor with small tags."""

    CONFIDENCE_THRESHOLD = 3

    def __init__(self, table_bits=8, tag_bits=14, max_iter=1 << 14):
        self._mask = (1 << table_bits) - 1
        self._tag_mask = (1 << tag_bits) - 1
        self._max_iter = max_iter
        self._table = [None] * (1 << table_bits)

    def predict(self, pc):
        """Return (valid, taken): valid only for confident regular loops."""
        entry = self._table[pc & self._mask]
        if (entry is None or entry.tag != (pc >> 2) & self._tag_mask
                or entry.confidence < self.CONFIDENCE_THRESHOLD):
            return False, True
        # Loop-back branch: taken past_iter times, then one not-taken exit.
        # current_iter counts takens so far in the current run, so the
        # next outcome is taken while current_iter < past_iter.
        return True, entry.current_iter < entry.past_iter

    def update(self, pc, taken):
        idx = pc & self._mask
        tag = (pc >> 2) & self._tag_mask
        entry = self._table[idx]
        if entry is None or entry.tag != tag:
            if entry is not None:
                entry.age -= 1
                if entry.age > 0:
                    return
            entry = _LoopEntry(tag)
            entry.age = 8
            self._table[idx] = entry
        if taken:
            entry.current_iter += 1
            if entry.current_iter >= self._max_iter:
                # Degenerate (extremely long) loop: give up on this entry.
                entry.confidence = 0
                entry.current_iter = 0
        else:
            if entry.current_iter == entry.past_iter:
                entry.confidence += entry.confidence < 7
            else:
                entry.confidence = 0
                entry.past_iter = entry.current_iter
            entry.current_iter = 0
            entry.age = 8
