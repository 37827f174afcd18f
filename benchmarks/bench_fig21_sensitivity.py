"""Figure 21 sensitivity studies:

(a) pipeline-depth sensitivity — CFD's gains grow with depth because it
    makes IPC insensitive to the fetch-to-execute latency (Table II's
    13-20 cycle range motivates this);
(b) window scaling — CFD's average gain grows with ROB size;
(c) BQ-miss handling — speculate vs stall, where only the hoist-only
    tiff applications show a real difference.
"""

from benchmarks.common import compare, fmt, prefetch, print_figure
from repro.core import sandy_bridge_config, scale_window
from repro.core.config import BQ_MISS_STALL

_DEPTH_APPS = [("soplex", "ref"), ("gromacs", "ref")]
_DEPTHS = [5, 9, 14, 20]
_WINDOW_APPS = [("soplex", "ref"), ("mcf", "ref"), ("astar_r2", "BigLakes")]
_WINDOWS = [168, 320, 640]
_POLICY_APPS = [("soplex", "ref"), ("tiff_2bw", "2bw"), ("tiff_median", "median")]


def _depth_sweep():
    configs = {
        depth: sandy_bridge_config(front_end_depth=depth, name="depth%d" % depth)
        for depth in _DEPTHS
    }
    prefetch(_DEPTH_APPS, variants=("base", "cfd"), config=list(configs.values()))
    rows = []
    for workload, input_name in _DEPTH_APPS:
        per_depth = []
        for depth in _DEPTHS:
            config = configs[depth]
            comparison, base_result, _ = compare(
                workload, "cfd", input_name, config=config
            )
            per_depth.append((depth, base_result.stats.ipc, comparison.speedup))
        rows.append((workload, per_depth))
    return rows


def _window_sweep():
    configs = {rob: scale_window(sandy_bridge_config(), rob) for rob in _WINDOWS}
    prefetch(_WINDOW_APPS, variants=("base", "cfd"), config=list(configs.values()))
    rows = []
    for workload, input_name in _WINDOW_APPS:
        per_window = []
        for rob in _WINDOWS:
            config = configs[rob]
            comparison, _, _ = compare(workload, "cfd", input_name, config=config)
            per_window.append((rob, comparison.speedup))
        rows.append((workload, per_window))
    return rows


def _policy_sweep():
    stall_cfg = sandy_bridge_config(bq_miss_policy=BQ_MISS_STALL, name="bq-stall")
    prefetch(_POLICY_APPS, variants=("base", "cfd"), config=[None, stall_cfg])
    rows = []
    for workload, input_name in _POLICY_APPS:
        spec, _, spec_result = compare(workload, "cfd", input_name)
        stall, _, stall_result = compare(
            workload, "cfd", input_name, config=stall_cfg
        )
        rows.append(
            (
                "%s(%s)" % (workload, input_name),
                spec.speedup,
                stall.speedup,
                spec_result.stats.bq_miss_rate,
            )
        )
    return rows


def test_fig21a_pipeline_depth(benchmark):
    rows = benchmark.pedantic(_depth_sweep, rounds=1, iterations=1)
    flat = []
    for workload, series in rows:
        for depth, base_ipc, speedup in series:
            flat.append((workload, depth, fmt(base_ipc), fmt(speedup)))
    print_figure(
        "Fig 21a — CFD speedup vs fetch-to-execute depth "
        "(Table II: real cores span 13-20 cycles)",
        ["application", "depth", "IPC(base)", "CFD speedup"],
        flat,
        notes="paper: base IPC degrades with depth; CFD gains grow",
    )
    for workload, series in rows:
        shallow, deep = series[0], series[-1]
        assert deep[1] < shallow[1]  # deeper pipe hurts the baseline
        assert deep[2] > shallow[2]  # and grows CFD's advantage


def test_fig21b_window_scaling(benchmark):
    rows = benchmark.pedantic(_window_sweep, rounds=1, iterations=1)
    flat = [
        (workload, rob, fmt(speedup))
        for workload, series in rows
        for rob, speedup in series
    ]
    print_figure(
        "Fig 21b — CFD speedup vs window size",
        ["application", "ROB", "CFD speedup"],
        flat,
        notes="paper: average improvement rises to 25% at larger windows",
    )
    from repro.analysis import geometric_mean

    small = geometric_mean([series[0][1] for _, series in rows])
    large = geometric_mean([series[-1][1] for _, series in rows])
    assert large >= small * 0.98  # gains hold or grow with the window


def test_fig21c_speculate_vs_stall(benchmark):
    rows = benchmark.pedantic(_policy_sweep, rounds=1, iterations=1)
    print_figure(
        "Fig 21c — BQ-miss policy: speculate vs stall",
        ["application", "speedup(spec)", "speedup(stall)", "BQ miss rate"],
        [(n, fmt(a), fmt(b), fmt(m, 3)) for n, a, b, m in rows],
        notes="paper: no major loss from stalling except the tiff apps",
    )
    for name, spec, stall, miss_rate in rows:
        if name.startswith("soplex"):
            # Ample fetch separation: policies equivalent.
            assert abs(spec - stall) < 0.08
            assert miss_rate < 0.02
        else:
            # Hoist-only tiff: misses happen, the policies diverge.
            assert miss_rate > 0.02
