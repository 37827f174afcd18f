"""Figure 1: IPC and energy, real (ISL-TAGE) vs perfect branch prediction.

Paper: perfect prediction speedups range 1.05-2.16 and saves 4-64% energy
on the hard-branch applications.  We reproduce the sweep over the CFD
application list and assert the same range shape.
"""

from benchmarks.common import CFD_BQ_APPS, fmt, prefetch, print_figure, run
from repro.core import sandy_bridge_config


def _sweep():
    perfect_config = sandy_bridge_config(predictor="perfect")
    prefetch(CFD_BQ_APPS, config=[None, perfect_config])
    rows = []
    for workload, input_name in CFD_BQ_APPS:
        _, real = run(workload, "base", input_name)
        _, perfect = run(workload, "base", input_name, config=perfect_config)
        speedup = real.stats.cycles / perfect.stats.cycles
        energy_saving = 1.0 - perfect.energy.total_pj / real.energy.total_pj
        rows.append(
            (
                "%s(%s)" % (workload, input_name),
                real.stats.ipc,
                perfect.stats.ipc,
                speedup,
                energy_saving,
                real.stats.mpki,
            )
        )
    return rows


def test_fig01_perfect_prediction(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    print_figure(
        "Fig 1a/1b — base vs perfect branch prediction",
        ["application", "IPC(base)", "IPC(perfect)", "speedup", "energy-", "MPKI"],
        [
            (name, fmt(a), fmt(b), fmt(s), fmt(e), fmt(m, 1))
            for name, a, b, s, e, m in rows
        ],
        notes="paper: speedups 1.05-2.16; energy savings 4%-64%",
    )
    speedups = [row[3] for row in rows]
    savings = [row[4] for row in rows]
    # shape: every app benefits; the hard ones benefit a lot
    assert all(s >= 1.0 for s in speedups)
    assert max(speedups) > 1.5
    assert min(speedups) < 1.5  # some apps are only mildly branch-limited
    assert all(e > 0 for e in savings)
    assert max(savings) > 0.25
