#!/usr/bin/env python3
"""Regenerate perfbench/pins.json: the correctness pins of every pool input.

    python3 perfbench/make_pins.py [--only core-full|sampled-run|sweep]

Run it from the repository root.  Pins are only ever regenerated on
purpose, when a change is meant to alter simulated results; the diff of
pins.json then shows exactly which outputs moved.

* core-full — digest of ``SimStats.to_dict()`` per case and pool seed;
* sampled-run — the same digest of the sampled run, plus the full-detail
  IPC of the same program and budget (the truth for ``ipc_error_pct``);
* sweep — digest of each point's result payload minus ``created``.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import cases  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    build, make_config, sweep_points,
)

PINS = os.path.join(ROOT, "perfbench", "pins.json")


def core_pins():
    from repro.core.simulator import Simulator

    pins = {}
    for seed in cases.CORE_POOL:
        for case in cases.CASES:
            built = build(case, cases.CORE_SCALE, seed)
            result = Simulator(built.program, make_config(case.config)).run(
                cases.CORE_BUDGETS[case.name]
            )
            pins[cases.pin_key(case.name, seed)] = cases.digest(
                result.stats.to_dict()
            )
    return pins


def sampled_pins():
    from repro.core.simulator import Simulator
    from repro.perf.sample import SampledSimulator, SamplingPlan

    pins = {}
    for seed in cases.SAMPLED_POOL:
        for case in cases.CASES:
            built = build(case, cases.SAMPLED_SCALE, seed)
            sampled = SampledSimulator(
                built.program, make_config(case.config),
                SamplingPlan.from_spec(cases.SAMPLED_PLAN),
            ).run(cases.SAMPLED_BUDGET)
            truth = Simulator(built.program, make_config(case.config)).run(
                cases.SAMPLED_BUDGET
            )
            pins[cases.pin_key(case.name, seed)] = {
                "digest": cases.digest(sampled.stats.to_dict()),
                "ipc": sampled.ipc,
                "truth_ipc": truth.stats.ipc,
            }
            print(case.name, seed, sampled.ipc, truth.stats.ipc,
                  file=sys.stderr)
    return pins


def sweep_pins():
    from repro.rel.supervise import run_supervised_sweep

    pins = {}
    runs = os.path.join(ROOT, ".perfbench_runs")
    os.makedirs(runs, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="pins-", dir=runs)
    try:
        for seed in cases.SWEEP_POOL:
            points, keys = sweep_points(seed)
            outcomes = run_supervised_sweep(
                points, jobs=cases.SWEEP_JOBS,
                trace_store=os.path.join(workdir, "trace"),
            )
            for key, outcome in zip(keys, outcomes):
                if not outcome.ok:
                    raise RuntimeError("%s failed:\n%s" % (key, outcome.error))
                pins[key] = cases.payload_digest(outcome.result.payload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return pins


MAKERS = {"core-full": core_pins, "sampled-run": sampled_pins,
          "sweep": sweep_pins}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", choices=sorted(MAKERS))
    args = parser.parse_args()
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    for name in [args.only] if args.only else sorted(MAKERS):
        made = MAKERS[name]()
        # Read just before writing: --only runs may go in parallel.
        try:
            with open(PINS) as fh:
                pins = json.load(fh)
        except FileNotFoundError:
            pins = {}
        pins[name] = made
        with open(PINS, "w") as fh:
            json.dump(pins, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
