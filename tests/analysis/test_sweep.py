"""The Fig 21a trend, re-derived from two configs."""

import dataclasses

from repro.analysis import compare_runs
from repro.core import sandy_bridge_config, simulate
from repro.workloads import get_workload


def test_deeper_pipe_bigger_cfd_win():
    """A deeper front end makes CFD's win bigger (Fig 21a)."""
    small = sandy_bridge_config(rob_size=64, iq_size=24, lq_size=16, sq_size=12)
    deep = dataclasses.replace(small, front_end_depth=18, name="deep")
    workload = get_workload("gromacs")
    base = workload.build("base", None, scale=0.25, seed=1)
    cfd = workload.build("cfd", None, scale=0.25, seed=1)
    speedup = {
        name: compare_runs(
            "gromacs()", "cfd",
            simulate(base.program, config), simulate(cfd.program, config),
        ).speedup
        for name, config in (("shallow", small), ("deep", deep))
    }
    assert speedup["deep"] > speedup["shallow"]
