"""Predictor interface shared by all direction predictors.

The cycle-level core predicts at fetch (speculatively updating global
history), repairs history on a misprediction via snapshots, and trains the
tables at retire.  Predictors that keep no global state implement the
snapshot methods trivially.

Protocol
--------
``predict(pc)``
    Return (taken, meta).  *meta* is opaque predictor bookkeeping carried
    with the branch and handed back to ``update``; it lets TAGE update the
    exact provider/alternate entries it consulted.
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
        three-call sequence.
        """
        predicted, meta = self.predict(pc)
        self.speculative_update(pc, taken)
        self.update(pc, taken, meta)
        return predicted

    def stats(self):
        """Optional predictor-internal statistics (dict)."""
        return {}

    def register_metrics(self, registry, prefix="branch.predictor"):
        """Register the numeric keys of :meth:`stats` as live gauges.

        Default implementation covers every predictor; subclasses with
        richer internals can override to add counters/histograms.
        """
        for key, value in self.stats().items():
            if isinstance(value, (int, float)):
                registry.gauge(
                    "%s.%s" % (prefix, key),
                    fn=(lambda k=key: self.stats().get(k, 0)),
                )
        return registry


def saturate(value, delta, lo, hi):
    """Add *delta* to *value*, clamped to [lo, hi]."""
    return max(lo, min(hi, value + delta))
