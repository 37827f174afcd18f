"""Figure 23: astar effective IPC vs window size, Base vs CFD.

Paper: for BigLakes region #2 the CFD speedup grows from 1.51 at a
168-entry window to 1.91 at 640 — memory-fed mispredictions prevent the
baseline from using a larger window, while CFD turns the window into MLP.
"""

from benchmarks.common import fmt, prefetch, print_figure, run
from repro.core import memory_bound_config, scale_window

_WINDOWS = [168, 320, 640]
_REGIONS = [("astar_r1", "BigLakes"), ("astar_r2", "BigLakes")]


def _sweep():
    configs = {rob: scale_window(memory_bound_config(), rob) for rob in _WINDOWS}
    prefetch(_REGIONS, variants=("base", "cfd"), config=list(configs.values()),
             scale=1.0)
    rows = []
    for workload, input_name in _REGIONS:
        series = []
        for rob in _WINDOWS:
            config = configs[rob]
            _, base = run(workload, "base", input_name, config=config, scale=1.0)
            _, cfd = run(workload, "cfd", input_name, config=config, scale=1.0)
            work = base.stats.retired
            series.append(
                (rob, base.stats.ipc, work / cfd.stats.cycles,
                 base.stats.cycles / cfd.stats.cycles)
            )
        rows.append((workload, series))
    return rows


def test_fig23_astar_window_scaling(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    flat = [
        (workload, rob, fmt(base_ipc), fmt(cfd_eff), fmt(speedup))
        for workload, series in rows
        for rob, base_ipc, cfd_eff, speedup in series
    ]
    print_figure(
        "Fig 23 — astar effective IPC vs window size (memory-bound config)",
        ["region", "ROB", "effIPC(base)", "effIPC(CFD)", "speedup"],
        flat,
        notes="paper: region #2 speedup grows 1.51 -> 1.91 from 168 to 640",
    )
    for workload, series in rows:
        first_speedup = series[0][3]
        last_speedup = series[-1][3]
        assert last_speedup > first_speedup, workload  # CFD gains grow
        # CFD exploits the window; base barely does
        base_gain = series[-1][1] / series[0][1]
        cfd_gain = series[-1][2] / series[0][2]
        assert cfd_gain > base_gain, workload
