"""Run metrics: one flat snapshot of the components' own counters.

A run's metrics are a flat, JSON-safe ``{dotted_name: value}`` dict —
the run manifest's ``metrics`` section and a cached payload's — named
``<structure>.<what>`` (``fetch.stall_cycles``, ``bq.miss_rate``,
``memsys.l1d.mshr.occupancy``).  The simulator's hot loop only bumps
plain attributes; :meth:`~repro.core.pipeline.Pipeline.metrics` reads
them once, after the run, mostly through the components' existing
``stats()`` dicts.  This module holds the two helpers it builds with.
"""


def flatten(prefix, stats, out):
    """Copy the numeric values of a ``stats()`` dict into *out*.

    Each key becomes ``<prefix>.<key>``; non-numeric values (labels,
    nested dicts) are skipped.
    """
    for key, value in stats.items():
        if isinstance(value, (int, float)):
            out["%s.%s" % (prefix, key)] = value


def histogram(buckets):
    """A ``{value: count}`` distribution as a JSON-safe snapshot value.

    ``{"count", "buckets"}`` with string bucket keys, plus ``"sum"`` and
    ``"mean"`` when every value is numeric and the count is non-zero.
    """
    total = 0
    weighted = 0.0
    numeric = True
    for key, count in buckets.items():
        total += count
        if isinstance(key, (int, float)):
            weighted += key * count
        else:
            numeric = False
    ordered = sorted(buckets.items(), key=lambda item: str(item[0]))
    out = {"count": total, "buckets": {str(k): v for k, v in ordered}}
    if numeric and total:
        out["sum"] = weighted
        out["mean"] = weighted / total
    return out
