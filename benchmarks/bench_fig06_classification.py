"""Figure 6 pies and Table I: the control-flow classification study.

Paper: targeted benchmarks carry ~78% of cumulative MPKI; of the targeted
mispredictions, 41.4% are separable (CFD-addressable) and 26.5% are
hammocks (if-conversion) — separable is the largest remediable class.
"""

from benchmarks.common import build, fmt, print_figure
from repro.profiling import run_classification_study
from repro.workloads.suite import CLASS_HAMMOCK, CLASS_INSEPARABLE


def _study():
    return run_classification_study(max_instructions=80_000, build=build)


def test_fig06_and_table1(benchmark):
    study = benchmark.pedantic(_study, rounds=1, iterations=1)

    print_figure(
        "Fig 6a — misprediction share per benchmark suite (MPKI-weighted)",
        ["suite", "share"],
        [(suite, fmt(share)) for suite, share in sorted(study.suite_shares().items())],
    )
    print_figure(
        "Fig 6b — targeted vs excluded",
        ["slice", "share"],
        [
            ("targeted", fmt(study.targeted_share())),
            ("excluded", fmt(1 - study.targeted_share())),
        ],
        notes="paper: targeted ~= 78%",
    )
    shares = study.class_shares()
    print_figure(
        "Fig 6c — targeted mispredictions by control-flow class",
        ["class", "share"],
        [(cls, fmt(share)) for cls, share in sorted(shares.items())],
        notes="paper: separable 41.4%, hammock 26.5%",
    )
    print_figure(
        "Table I — per-benchmark MPKI",
        ["suite", "application", "MPKI", "mispred-rate", "excluded"],
        [
            (r.suite, "%s(%s)" % (r.workload, r.input_name), fmt(r.mpki, 2),
             fmt(r.misprediction_rate, 3), str(r.excluded))
            for r in study.table_rows()
        ],
    )

    separable = study.separable_share()
    hammock = shares.get(CLASS_HAMMOCK, 0.0)
    inseparable = shares.get(CLASS_INSEPARABLE, 0.0)
    assert study.targeted_share() > 0.6
    assert separable > hammock  # CFD covers the largest remediable class
    assert separable > inseparable
    assert 0.3 < separable < 0.95
