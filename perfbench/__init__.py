"""Wall-clock benchmark of the repro simulator (see perfbench/README.md).

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root.
"""
