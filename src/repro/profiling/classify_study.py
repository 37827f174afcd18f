"""The control-flow classification study (Section II, Figure 6, Table I).

Profiles every workload's *base* binary with the model ISL-TAGE predictor
and aggregates, exactly as the paper does:

- Fig 6a — misprediction share per benchmark suite, each benchmark
  weighted by its MPKI (the "average 1K-instruction interval");
- Fig 6b — targeted vs excluded split (excluded = misprediction rate
  below the 2% threshold, as in the paper; we have no cross-compiler
  failures to exclude);
- Fig 6c — breakdown of targeted mispredictions by control-flow class
  (hammock / separable / inseparable), taken from each workload's
  classification;
- Table I — the per-benchmark MPKI table.
"""

from dataclasses import dataclass, field
from typing import List

from repro.profiling.branch_profile import profile_program
from repro.workloads.suite import (
    CLASS_EASY,
    CLASS_LOOP_BRANCH,
    CLASS_PARTIALLY_SEPARABLE,
    CLASS_TOTALLY_SEPARABLE,
    all_workloads,
)

#: The paper's exclusion threshold: misprediction rate below 2%.
EXCLUSION_RATE = 0.02

_SEPARABLE = (
    CLASS_TOTALLY_SEPARABLE,
    CLASS_PARTIALLY_SEPARABLE,
    CLASS_LOOP_BRANCH,
)


@dataclass
class BenchmarkProfileRow:
    """One Table I row."""

    workload: str
    input_name: str
    suite: str
    branch_class: str
    mpki: float
    misprediction_rate: float
    excluded: bool


@dataclass
class ClassificationStudy:
    """Aggregated results of the profiling sweep."""

    rows: List[BenchmarkProfileRow] = field(default_factory=list)

    def suite_shares(self):
        """Fig 6a: {suite: share of total MPKI} (MPKI-weighted)."""
        totals = {}
        for row in self.rows:
            totals[row.suite] = totals.get(row.suite, 0.0) + row.mpki
        grand = sum(totals.values())
        return {s: v / grand for s, v in totals.items()} if grand else {}

    def targeted_share(self):
        """Fig 6b: fraction of MPKI in targeted (non-excluded) benchmarks."""
        targeted = sum(r.mpki for r in self.rows if not r.excluded)
        grand = sum(r.mpki for r in self.rows)
        return targeted / grand if grand else 0.0

    def class_shares(self):
        """Fig 6c: {class: share of *targeted* MPKI}."""
        totals = {}
        for row in self.rows:
            if row.excluded:
                continue
            totals[row.branch_class] = totals.get(row.branch_class, 0.0) + row.mpki
        grand = sum(totals.values())
        return {c: v / grand for c, v in totals.items()} if grand else {}

    def separable_share(self):
        """Share of targeted MPKI addressable by CFD (the paper's 41.4%)."""
        return sum(
            share
            for cls, share in self.class_shares().items()
            if cls in _SEPARABLE
        )

    def table_rows(self):
        """Table I: (workload(input), suite, MPKI) sorted by suite."""
        return sorted(
            self.rows, key=lambda r: (r.suite, r.workload, r.input_name)
        )


def run_classification_study(scale=0.25, max_instructions=120_000, seed=1,
                             build=None):
    """Profile every workload's base binary; returns the study.

    *build*, when given, makes each binary instead, called as
    ``build(workload_name, "base", input_name)`` (a caller's build memo
    at its own scale and seed); by default each is built at *scale* and
    *seed*.
    """
    study = ClassificationStudy()
    for workload in all_workloads():
        for input_name in workload.inputs:
            if build is None:
                built = workload.build("base", input_name, scale=scale,
                                       seed=seed)
            else:
                built = build(workload.name, "base", input_name)
            profiler = profile_program(
                built.program,
                max_instructions=max_instructions,
                track_levels=False,
            )
            study.rows.append(
                BenchmarkProfileRow(
                    workload=workload.name,
                    input_name=input_name,
                    suite=workload.suite,
                    branch_class=workload.branch_class,
                    mpki=profiler.mpki,
                    misprediction_rate=profiler.misprediction_rate,
                    excluded=(
                        profiler.misprediction_rate < EXCLUSION_RATE
                        or workload.branch_class == CLASS_EASY
                    ),
                )
            )
    return study
