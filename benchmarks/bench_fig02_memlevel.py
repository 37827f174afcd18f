"""Figure 2a: misprediction breakdown by furthest feeding memory level,
and Figure 2b: astar IPC vs window size with/without perfect prediction
(the "eradicating mispredictions is a catalyst for latency tolerance"
result).
"""

from benchmarks.common import fmt, prefetch, print_figure, run
from repro.core import memory_bound_config, scale_window
from repro.memsys.hierarchy import MemLevel

_LEVELS = [MemLevel.NONE, MemLevel.L1, MemLevel.L2, MemLevel.L3, MemLevel.MEM]
_APPS = [
    ("astar_r1", "BigLakes"),
    ("astar_r2", "BigLakes"),
    ("mcf", "ref"),
    ("soplex", "ref"),
]
_WINDOWS = [168, 320, 640]


def _fig2a():
    config = memory_bound_config()
    prefetch(_APPS, config=config)
    rows = []
    for workload, input_name in _APPS:
        _, result = run(workload, "base", input_name, config=config)
        fractions = result.stats.mispredict_level_fractions()
        rows.append(
            [("%s(%s)" % (workload, input_name))]
            + [fractions.get(level, 0.0) for level in _LEVELS]
        )
    return rows


def _fig2b():
    configs = {
        rob: (scale_window(memory_bound_config(), rob),
              scale_window(memory_bound_config(predictor="perfect"), rob))
        for rob in _WINDOWS
    }
    prefetch([("astar_r1", "BigLakes")],
             config=[cfg for pair in configs.values() for cfg in pair],
             scale=1.0)
    series = []
    for rob in _WINDOWS:
        real_cfg, perf_cfg = configs[rob]
        _, real = run("astar_r1", "base", "BigLakes", config=real_cfg, scale=1.0)
        _, perfect = run("astar_r1", "base", "BigLakes", config=perf_cfg, scale=1.0)
        series.append((rob, real.stats.ipc, perfect.stats.ipc))
    return series


def test_fig02a_misprediction_levels(benchmark):
    rows = benchmark.pedantic(_fig2a, rounds=1, iterations=1)
    print_figure(
        "Fig 2a — mispredictions by furthest feeding memory level",
        ["application", "NoData", "L1", "L2", "L3", "MEM"],
        [[r[0]] + [fmt(v) for v in r[1:]] for r in rows],
        notes="paper: sizable L2/L3/MEM-fed fractions for the astar-class apps",
    )
    # shape: memory-bound apps have beyond-L1-fed mispredictions
    astar = rows[0]
    assert sum(astar[3:]) > 0.05  # L2+L3+MEM share
    for row in rows:
        assert abs(sum(row[1:]) - 1.0) < 1e-6


def test_fig02b_window_scaling_catalyst(benchmark):
    series = benchmark.pedantic(_fig2b, rounds=1, iterations=1)
    print_figure(
        "Fig 2b — astar IPC vs window size, real vs perfect prediction",
        ["ROB", "IPC(real)", "IPC(perfect)"],
        [(rob, fmt(a), fmt(b)) for rob, a, b in series],
        notes="paper: IPC scales with window only under perfect prediction",
    )
    real_gain = series[-1][1] / series[0][1]
    perfect_gain = series[-1][2] / series[0][2]
    assert perfect_gain > real_gain  # perfect prediction unlocks the window
    assert perfect_gain > 1.1
