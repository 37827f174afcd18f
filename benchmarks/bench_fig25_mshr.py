"""Figure 25a: L1 MSHR utilization histograms (base/CFD/DFD), and
Figure 25b: misprediction memory-level breakdown, base vs DFD.

Paper: DFD shows a more pronounced bimodal MSHR histogram (fewer, denser
miss clusters) than CFD; and DFD moves the branches' data closer to the
core — far-level-fed mispredictions become near-level-fed.
"""

from benchmarks.common import fmt, prefetch, print_figure, run
from repro.core import memory_bound_config
from repro.memsys.hierarchy import MemLevel

_APP = ("astar_r1", "BigLakes")
_LEVELS = [MemLevel.NONE, MemLevel.L1, MemLevel.L2, MemLevel.L3, MemLevel.MEM]


def _collect():
    config = memory_bound_config()
    prefetch([_APP], variants=("base", "cfd", "dfd"), config=config, scale=1.0)
    results = {}
    for variant in ("base", "cfd", "dfd"):
        _, results[variant] = run(_APP[0], variant, _APP[1], config=config,
                                  scale=1.0)
    return results


def _histogram_stats(result):
    histogram = result.mshr_histogram()
    total = sum(histogram.values())
    zero = histogram.get(0, 0) / total
    high = sum(c for occ, c in histogram.items() if occ >= 8) / total
    mean = sum(occ * c for occ, c in histogram.items()) / total
    return zero, high, mean


def test_fig25a_mshr_utilization(benchmark):
    results = benchmark.pedantic(_collect, rounds=1, iterations=1)
    rows = []
    for variant, result in results.items():
        zero, high, mean = _histogram_stats(result)
        rows.append((variant, fmt(zero), fmt(high), fmt(mean)))
    print_figure(
        "Fig 25a — L1 MSHR occupancy over cycles (astar r1, BigLakes)",
        ["variant", "frac cycles @0", "frac cycles >=8", "mean occupancy"],
        rows,
        notes="paper: CFD and DFD both bimodal; DFD more pronounced "
        "(denser miss clusters)",
    )
    base_zero, base_high, base_mean = _histogram_stats(results["base"])
    for variant in ("cfd", "dfd"):
        _, high, mean = _histogram_stats(results[variant])
        # Decoupled first loops cluster misses: more high-MLP cycles.
        assert mean > base_mean * 0.9, variant
        assert high >= base_high, variant


def test_fig25b_dfd_moves_data_closer(benchmark):
    results = benchmark.pedantic(_collect, rounds=1, iterations=1)
    rows = []
    for variant in ("base", "dfd"):
        fractions = results[variant].stats.mispredict_level_fractions()
        rows.append(
            [variant] + [fmt(fractions.get(level, 0.0)) for level in _LEVELS]
        )
    print_figure(
        "Fig 25b — misprediction breakdown by feeding level, base vs DFD",
        ["variant", "NoData", "L1", "L2", "L3", "MEM"],
        rows,
        notes="paper: DFD replaces far-level-fed mispredictions with near",
    )
    base_fr = results["base"].stats.mispredict_level_fractions()
    dfd_fr = results["dfd"].stats.mispredict_level_fractions()
    base_far = sum(f for lvl, f in base_fr.items() if lvl >= MemLevel.L3)
    dfd_far = sum(f for lvl, f in dfd_fr.items() if lvl >= MemLevel.L3)
    base_near = sum(f for lvl, f in base_fr.items() if lvl <= MemLevel.L1)
    dfd_near = sum(f for lvl, f in dfd_fr.items() if lvl <= MemLevel.L1)
    assert dfd_far < base_far
    assert dfd_near > base_near
