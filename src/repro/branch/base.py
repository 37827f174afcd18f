"""Predictor interface shared by all direction predictors.

The cycle-level core predicts at fetch (speculatively updating global
history), repairs history on a misprediction via snapshots, and trains the
tables at retire.  Predictors that keep no global state implement the
snapshot methods trivially.

Protocol
--------
``predict(pc)``
    Return (taken, meta).  *meta* is whatever ``predict`` returns, opaque
    to the pipeline, which carries it with the branch and hands it back
    to ``update``.  For TAGE it is the table scan's tuple, so the update
    trains the exact provider/alternate entries the prediction consulted.
``speculative_update(pc, taken)``
    Shift the predicted direction into global history at fetch time.
``snapshot()`` / ``restore(snap)``
    Capture / restore speculative history for checkpoint recovery.
``update(pc, taken, meta)``
    Train tables with the resolved direction (retire time).
"""


class HistorySnapshot:
    """Opaque wrapper for a predictor's speculative-history snapshot."""

    __slots__ = ("payload",)

    def __init__(self, payload):
        self.payload = payload


class BranchPredictor:
    """Abstract direction predictor."""

    name = "abstract"

    def predict(self, pc):
        """Return (taken: bool, meta) for the branch at *pc*."""
        raise NotImplementedError

    def speculative_update(self, pc, taken):
        """Shift *taken* into speculative global history (fetch time)."""

    def snapshot(self):
        """Capture speculative history state."""
        return HistorySnapshot(None)

    def restore(self, snapshot):
        """Restore speculative history captured by :meth:`snapshot`."""

    def update(self, pc, taken, meta=None):
        """Train with the resolved direction (retire time)."""

    def train(self, pc, taken):
        """Committed-path training for one retired branch (warm mode).

        The net effect of ``predict`` → ``speculative_update`` →
        ``update`` collapsed into one call: history ends shifted by the
        actual outcome and the tables train on it under the
        prediction-time meta.  Returns the direction that would have
        been predicted.  Subclasses may override with a fused
        implementation; the state reached must be identical to the
        three-call sequence (``test_train_matches_predict_update``
        checks it on a real branch stream).
        """
        predicted, meta = self.predict(pc)
        self.speculative_update(pc, taken)
        self.update(pc, taken, meta)
        return predicted

    def stats(self):
        """Optional predictor-internal statistics (dict)."""
        return {}

