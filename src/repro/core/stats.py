"""Simulation statistics.

Collects everything the paper's figures need: IPC, MPKI, per-static-branch
misprediction counts, the misprediction breakdown by furthest feeding
memory level (Figs 2a, 25b), BQ/TQ behaviour (BQ miss rate, late pushes,
Forward bulk-pops), wrong-path activity (the energy model's main input),
and the per-cycle L1D MSHR occupancy histogram (Fig 25a).
"""

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict

from repro.memsys.hierarchy import MemLevel
from repro.obs.metrics import histogram

#: (metric name, SimStats attribute) for every scalar counter.  Single
#: source of truth shared by :meth:`SimStats.to_dict` and
#: :meth:`SimStats.metrics`; the metric names follow the
#: ``<structure>.<what>`` scheme documented in docs/OBSERVABILITY.md.
COUNTER_METRICS = (
    ("core.cycles", "cycles"),
    ("core.retired", "retired"),
    ("fetch.instructions", "fetched"),
    ("rename.instructions", "renamed"),
    ("issue.instructions", "issued"),
    ("execute.instructions", "executed"),
    ("squash.instructions", "squashed"),
    ("squash.wrong_path_executed", "wrong_path_executed"),
    ("recovery.total", "recoveries"),
    ("recovery.at_retire", "retire_recoveries"),
    ("fetch.misfetches", "misfetches"),
    ("fetch.stall_cycles", "fetch_cycles_stalled"),
    ("fetch.icache_stall_cycles", "icache_stall_cycles"),
    ("branch.retired", "branches_retired"),
    ("branch.conditional_retired", "cond_branches_retired"),
    ("branch.mispredicts", "mispredicts"),
    ("bq.pushes", "bq_pushes"),
    ("bq.pops", "bq_pops"),
    ("bq.misses", "bq_misses"),
    ("bq.miss_mispredicts", "bq_miss_mispredicts"),
    ("bq.stall_cycles", "bq_stall_cycles"),
    ("bq.full_stalls", "bq_full_stalls"),
    ("bq.forward_bulk_pops", "forward_bulk_pops"),
    ("vq.pushes", "vq_pushes"),
    ("vq.pops", "vq_pops"),
    ("tq.pushes", "tq_pushes"),
    ("tq.pops", "tq_pops"),
    ("tq.stall_cycles", "tq_stall_cycles"),
    ("tq.tcr_branches", "tcr_branches"),
    ("checkpoint.taken", "checkpoints_taken"),
    ("checkpoint.denied", "checkpoints_denied"),
    ("checkpoint.skipped_confident", "checkpoints_skipped_confident"),
)

#: (metric name, SimStats property) for derived rates/ratios.
GAUGE_METRICS = (
    ("core.ipc", "ipc"),
    ("core.mpki", "mpki"),
    ("bq.miss_rate", "bq_miss_rate"),
)


@dataclass
class BranchStat:
    """Per-static-branch counters."""

    executed: int = 0
    taken: int = 0
    mispredicted: int = 0
    resolved_at_fetch: int = 0  # B_BQ pops served by a pushed predicate
    level_breakdown: Dict[int, int] = field(default_factory=dict)

    def record(self, taken, mispredicted, level=MemLevel.NONE, at_fetch=False):
        self.executed += 1
        if taken:
            self.taken += 1
        if at_fetch:
            self.resolved_at_fetch += 1
        if mispredicted:
            self.mispredicted += 1
            key = int(level)
            self.level_breakdown[key] = self.level_breakdown.get(key, 0) + 1

    @property
    def misprediction_rate(self):
        return self.mispredicted / self.executed if self.executed else 0.0


class SimStats:
    """All counters produced by one simulation."""

    def __init__(self):
        self.cycles = 0
        self.retired = 0
        self.fetched = 0
        self.renamed = 0
        self.issued = 0
        self.executed = 0
        self.squashed = 0  # wrong-path uops discarded
        self.wrong_path_executed = 0
        self.recoveries = 0
        self.retire_recoveries = 0
        self.misfetches = 0  # BTB misses on taken branches

        # Branches
        self.branches_retired = 0
        self.cond_branches_retired = 0
        self.mispredicts = 0
        self.branch_stats = defaultdict(BranchStat)
        self.mispredict_levels = defaultdict(int)  # MemLevel -> count

        # CFD
        self.bq_pushes = 0
        self.bq_pops = 0
        self.bq_misses = 0  # pops that found no pushed predicate
        self.bq_miss_mispredicts = 0
        self.bq_stall_cycles = 0
        self.bq_full_stalls = 0
        self.forward_bulk_pops = 0
        self.vq_pushes = 0
        self.vq_pops = 0
        self.tq_pushes = 0
        self.tq_pops = 0
        self.tq_stall_cycles = 0
        self.tcr_branches = 0

        # Checkpoints
        self.checkpoints_taken = 0
        self.checkpoints_denied = 0  # pool exhausted
        self.checkpoints_skipped_confident = 0

        # Front-end
        self.fetch_cycles_stalled = 0
        self.icache_stall_cycles = 0

        # Event counters for the energy model
        self.events = defaultdict(int)

        # Memory
        self.load_level_counts = defaultdict(int)  # MemLevel -> loads served

    # -- derived metrics ------------------------------------------------------

    @property
    def ipc(self):
        return self.retired / self.cycles if self.cycles else 0.0

    @property
    def mpki(self):
        return 1000.0 * self.mispredicts / self.retired if self.retired else 0.0

    @property
    def bq_miss_rate(self):
        return self.bq_misses / self.bq_pops if self.bq_pops else 0.0

    def mispredict_level_fractions(self):
        """{MemLevel: fraction of mispredictions} (Figs 2a / 25b)."""
        total = sum(self.mispredict_levels.values())
        if not total:
            return {}
        return {
            MemLevel(level): count / total
            for level, count in sorted(self.mispredict_levels.items())
        }

    def record_branch(self, pc, taken, mispredicted, level=MemLevel.NONE,
                      at_fetch=False, conditional=True):
        self.branches_retired += 1
        if conditional:
            self.cond_branches_retired += 1
        if mispredicted:
            self.mispredicts += 1
            self.mispredict_levels[int(level)] += 1
        self.branch_stats[pc].record(taken, mispredicted, level, at_fetch)

    def top_mispredicting_branches(self, count=10):
        """[(pc, BranchStat)] sorted by misprediction contribution."""
        ranked = sorted(
            self.branch_stats.items(),
            key=lambda item: item[1].mispredicted,
            reverse=True,
        )
        return ranked[:count]

    def merge(self, other):
        """Accumulate *other*'s counters into this object; returns self.

        Used by sampled simulation (:mod:`repro.perf.sample`) to
        aggregate the per-interval measurement stats.  ``cycles`` adds
        like any other counter — the sum covers only the measured
        intervals, not the warm gaps between them.
        """
        for _, attr in COUNTER_METRICS:
            setattr(self, attr, getattr(self, attr) + getattr(other, attr))
        for level, count in other.mispredict_levels.items():
            self.mispredict_levels[level] += count
        for level, count in other.load_level_counts.items():
            self.load_level_counts[level] += count
        for key, count in other.events.items():
            self.events[key] += count
        for pc, branch in other.branch_stats.items():
            mine = self.branch_stats[pc]
            mine.executed += branch.executed
            mine.taken += branch.taken
            mine.mispredicted += branch.mispredicted
            mine.resolved_at_fetch += branch.resolved_at_fetch
            for level, count in branch.level_breakdown.items():
                mine.level_breakdown[level] = (
                    mine.level_breakdown.get(level, 0) + count
                )
        return self

    def scaled(self, factor):
        """A new :class:`SimStats` with every counter scaled by *factor*.

        The extrapolation step of sampled simulation: counts measured
        over the detailed intervals are blown up to the whole run
        (rounded to integers — these are counters, not rates).  Derived
        rates (IPC, MPKI, miss rates) are ratio estimators and survive
        the scaling unchanged up to rounding.
        """
        out = SimStats()
        for _, attr in COUNTER_METRICS:
            setattr(out, attr, round(getattr(self, attr) * factor))
        for level, count in self.mispredict_levels.items():
            out.mispredict_levels[level] = round(count * factor)
        for level, count in self.load_level_counts.items():
            out.load_level_counts[level] = round(count * factor)
        for key, count in self.events.items():
            out.events[key] = round(count * factor)
        for pc, branch in self.branch_stats.items():
            mine = out.branch_stats[pc]
            mine.executed = round(branch.executed * factor)
            mine.taken = round(branch.taken * factor)
            mine.mispredicted = round(branch.mispredicted * factor)
            mine.resolved_at_fetch = round(branch.resolved_at_fetch * factor)
            mine.level_breakdown = {
                level: round(count * factor)
                for level, count in branch.level_breakdown.items()
            }
        return out

    def to_dict(self):
        """Complete JSON-safe snapshot of every counter this run produced.

        This is the canonical machine-readable form: every scalar counter
        (keyed by attribute name), the derived rates, the per-memory-level
        breakdowns (keyed by :class:`MemLevel` name) and the energy-model
        event counters.  The run manifest embeds it verbatim;
        :meth:`summary` is a documented subset of it.
        """
        out = {attr: getattr(self, attr) for _, attr in COUNTER_METRICS}
        out["ipc"] = self.ipc
        out["mpki"] = self.mpki
        out["bq_miss_rate"] = self.bq_miss_rate
        out["static_branches"] = len(self.branch_stats)
        out["mispredict_levels"] = {
            MemLevel(level).name: count
            for level, count in sorted(self.mispredict_levels.items())
        }
        out["load_level_counts"] = {
            MemLevel(level).name: count
            for level, count in sorted(self.load_level_counts.items())
        }
        out["events"] = dict(sorted(self.events.items()))
        return out

    def to_snapshot(self):
        """Complete, lossless, JSON-safe serialization of this object.

        Unlike :meth:`to_dict` (the reporting form), this round-trips:
        :meth:`from_snapshot` rebuilds a :class:`SimStats` whose
        :meth:`to_dict` is byte-identical to the original's.  Dict keys
        are stringified (JSON requirement) and the per-static-branch
        table is kept in insertion order so tie-breaking in
        :meth:`top_mispredicting_branches` survives the round-trip.
        The persistent result cache (:mod:`repro.perf.cache`) and the
        process-pool sweep engine ship results in this form.
        """
        return {
            "counters": {attr: getattr(self, attr) for _, attr in COUNTER_METRICS},
            "mispredict_levels": {
                str(level): count for level, count in self.mispredict_levels.items()
            },
            "load_level_counts": {
                str(level): count for level, count in self.load_level_counts.items()
            },
            "events": dict(self.events),
            "branch_stats": {
                str(pc): {
                    "executed": branch.executed,
                    "taken": branch.taken,
                    "mispredicted": branch.mispredicted,
                    "resolved_at_fetch": branch.resolved_at_fetch,
                    "level_breakdown": {
                        str(level): count
                        for level, count in branch.level_breakdown.items()
                    },
                }
                for pc, branch in self.branch_stats.items()
            },
        }

    @classmethod
    def from_snapshot(cls, snapshot):
        """Rebuild a :class:`SimStats` from :meth:`to_snapshot` output."""
        stats = cls()
        for attr, value in snapshot["counters"].items():
            setattr(stats, attr, value)
        for level, count in snapshot["mispredict_levels"].items():
            stats.mispredict_levels[int(level)] = count
        for level, count in snapshot["load_level_counts"].items():
            stats.load_level_counts[int(level)] = count
        stats.events.update(snapshot["events"])
        for pc, fields in snapshot["branch_stats"].items():
            branch = stats.branch_stats[int(pc)]
            branch.executed = fields["executed"]
            branch.taken = fields["taken"]
            branch.mispredicted = fields["mispredicted"]
            branch.resolved_at_fetch = fields["resolved_at_fetch"]
            branch.level_breakdown = {
                int(level): count
                for level, count in fields["level_breakdown"].items()
            }
        return stats

    #: The keys :meth:`summary` extracts from :meth:`to_dict` (the floats
    #: are rounded for display; everything else is passed through).
    SUMMARY_KEYS = (
        "cycles", "retired", "ipc", "mpki", "mispredicts", "recoveries",
        "squashed", "bq_pops", "bq_miss_rate", "checkpoints_taken",
    )

    def summary(self):
        """Compact dict for reports and tests — a subset of :meth:`to_dict`."""
        full = self.to_dict()
        out = {key: full[key] for key in self.SUMMARY_KEYS}
        out["ipc"] = round(out["ipc"], 4)
        out["mpki"] = round(out["mpki"], 3)
        out["bq_miss_rate"] = round(out["bq_miss_rate"], 4)
        return out

    def metrics(self):
        """The stats' part of the flat run-metrics snapshot.

        Every counter and rate under its metric name, the static-branch
        count, and three histograms: mispredictions and retired loads by
        memory level, and the energy model's raw event counters.
        """
        out = {name: getattr(self, attr) for name, attr in COUNTER_METRICS}
        for name, attr in GAUGE_METRICS:
            out[name] = getattr(self, attr)
        out["branch.static_branches"] = len(self.branch_stats)
        out["branch.mispredict_levels"] = histogram({
            MemLevel(level).name: count
            for level, count in self.mispredict_levels.items()
        })
        out["memsys.load_levels"] = histogram({
            MemLevel(level).name: count
            for level, count in self.load_level_counts.items()
        })
        out["core.events"] = histogram(self.events)
        return out
