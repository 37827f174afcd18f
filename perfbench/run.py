#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload core-full --seed 1 --seconds 20 \
        --trace 0

Run from the repository root.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end metrics of BENCHMARK.json, with ``--trace 1``
the per-layer ones.  The line before it is the run record
``{"record": {...}}`` with the noise diagnostics and the workload's
details.  See perfbench/README.md.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import cases  # noqa: E402
from perfbench.measure import (  # noqa: E402
    PROBE_REF_S, HostNoise, HostSpeed, median_rate_kips, peak_rss_mb,
)
from perfbench.tracing import NullTracer, Tracer  # noqa: E402

#: Set-up runs per untraced run: this process and that many - 1 children.
SETUP_SAMPLES = 3

BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
PINS = os.path.join(ROOT, "perfbench", "pins.json")


class Run:
    """One process's isolated environment: fresh cache, trace and service
    directories under ``.perfbench_runs/``, no inherited ``REPRO_*``."""

    def __init__(self, args):
        self.root = ROOT
        self.seed = args.seed
        self.seconds = args.seconds
        self.run_dir = os.path.join(
            ROOT, ".perfbench_runs", "%s-%d" % (args.workload, os.getpid())
        )
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.cache_dir = os.path.join(self.run_dir, "cache")
        self.trace_dir = os.path.join(self.run_dir, "traces")
        for path in (self.cache_dir, self.trace_dir):
            os.makedirs(path)
        # REPRO_TELEMETRY_DIR, REPRO_FS_SANITIZE, REPRO_JOBS and every
        # other knob would change what a run does; drop them all.
        for name in [k for k in os.environ if k.startswith("REPRO_")]:
            del os.environ[name]
        os.environ["REPRO_CACHE_DIR"] = self.cache_dir
        os.environ["REPRO_TRACE_DIR"] = self.trace_dir
        src = os.path.join(ROOT, "src")
        os.environ["PYTHONPATH"] = src
        sys.path.insert(0, src)
        self.env = dict(os.environ)
        with open(PINS) as fh:
            self.pins = json.load(fh)

    def close(self):
        shutil.rmtree(self.run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.run_dir))
        except OSError:
            pass  # another run still uses it


def child(args, role):
    """Run this script again with *role*; returns its record."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--role", role]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=170, check=True)
    for line in reversed(done.stdout.decode().splitlines()):
        if line.startswith('{"record"'):
            return json.loads(line)["record"]
    raise RuntimeError("no record from %s child" % role)


def metric_specs(kind):
    with open(BENCHMARK) as fh:
        return json.load(fh)[kind]


def per_layer(tracer, wall_s, phase, overhead_pct):
    """Every per-layer metric of BENCHMARK.json (0 where the workload does
    not run that layer in this process)."""
    split = tracer.split(wall_s)
    values = dict(split)
    values.update(tracer.counts)
    values.update(phase.layers)
    values["warm.replay_calls"] = tracer.calls("warm.replay_s")
    values["sample.live_warm_calls"] = tracer.calls("sample.live_warm_s")
    # Host time of the detailed core per simulated cycle: the stages, the
    # rest of Simulator.run and the rest of each sampled detailed slice.
    core_s = sum(seconds for name, seconds in split.items()
                 if name.startswith("core.")) + split.get(
                     "sample.detailed_s", 0.0)
    cycles = values.get("core.cycles", 0)
    values["core.host_us_per_cycle"] = core_s / cycles * 1e6 if cycles else 0
    values["trace.wall_s"] = wall_s
    values["trace.overhead_pct"] = overhead_pct
    out = {}
    for spec in metric_specs("per_layer"):
        value = values.get(spec["name"], 0)
        # A failed serve job's latency is infinite; JSON has no infinity.
        out[spec["name"]] = {"value": value if math.isfinite(value) else 1e9,
                             "unit": spec["unit"]}
    return out, sum(split.values())


def reference_kips(timed):
    """``kips`` at the reference host speed: each operation's seconds
    rescaled by the host-speed probes on either side of it."""
    return median_rate_kips([
        (group, instructions, seconds * PROBE_REF_S / probe_s)
        for group, instructions, seconds, probe_s in timed
    ])


def end_to_end(phase, setup_samples):
    values = {
        "setup_s": statistics.median(setup_samples),
        "kips": reference_kips(phase.timed),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {spec["name"]: {"value": values[spec["name"]],
                           "unit": spec["unit"]}
            for spec in metric_specs("end_to_end")}


def execute(args):
    from perfbench.workloads import WORKLOADS

    run = Run(args)
    run.host = HostSpeed()
    noise = HostNoise()
    workload = WORKLOADS[args.workload]()
    tracer = run.tracer = Tracer() if args.trace else NullTracer()
    try:
        with tracer.span("workloads.import_s"):
            for module in workload.modules:
                importlib.import_module(module)
            # Registering the workload modules is import work, not build.
            importlib.import_module("repro.workloads").workload_names()
        if args.trace:
            workload.patch(tracer)
        workload.setup(run)
        first_op = time.perf_counter()
        setup_s = first_op - T0
        if args.role == "setup":
            return {"setup_s": setup_s}, None
        phase = workload.measure(run)
        wall_s = time.perf_counter() - T0
        workload.finish(run, phase)
    finally:
        if args.trace:
            tracer.unpatch()
        workload.stop()
        run.close()
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "data_seeds": (
            list(cases.pool_schedule(args.workload, args.seed, args.seconds))
            if args.workload in cases.POOLS else None),
        "wall_s": wall_s, "setup_s": setup_s,
        "measured_s": phase.seconds, "instructions": phase.instructions,
        # kips as timed on this host, unscaled: the median-rate one and
        # the plain aggregate; and every timed operation with its probe,
        # so that an outlier shows.
        "host_kips": median_rate_kips([op[:3] for op in phase.timed]),
        "aggregate_kips": (phase.instructions / phase.seconds / 1000.0
                           if phase.seconds > 0 else 0.0),
        "timed": [[group, instructions, round(seconds, 4),
                   round(probe_s, 5)]
                  for group, instructions, seconds, probe_s in phase.timed],
        "attempted": phase.attempted, "failed": phase.failed,
    }
    record.update(phase.record)
    if args.role == "reference":
        return record, None
    if args.trace:
        reference = child(args, "reference")
        overhead = (wall_s / reference["wall_s"] - 1.0) * 100.0
        metrics, split_sum = per_layer(tracer, wall_s, phase, overhead)
        record["untraced_wall_s"] = reference["wall_s"]
        record["split_sum_s"] = split_sum
    else:
        samples = [setup_s] + [
            child(args, "setup")["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        record["setup_samples_s"] = samples
        metrics = end_to_end(phase, samples)
    record["noise"] = noise.report()
    record["noise"]["host_speed"] = run.host.report()
    return record, {
        "correct": phase.failed == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: "setup" children time set-up only; the "reference" child
    # is the untraced twin a traced run compares its wall time with.
    parser.add_argument("--role", choices=("main", "setup", "reference"),
                        default="main", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no repro sources under %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    try:
        record, result = execute(args)
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps({"record": record}))
    if result is not None:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
