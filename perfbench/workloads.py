"""The four workloads: set-up, timed phase and output checks.

Each workload has the shape of :class:`Workload`:

* ``modules`` — what set-up imports (timed as ``workloads.import_s``);
* ``patch(tracer)`` — the layer functions the traced mode wraps;
* ``setup(run)`` — everything before the first timed operation;
* ``measure(run)`` — the timed phase; returns a :class:`Phase`;
* ``finish(run, phase)`` — untimed checks after it;
* ``stop()`` — ends what set-up started, also after a failure.

``repro`` is imported lazily: ``run.py`` puts ``src/`` on the path first.
"""

import http.client
import json
import os
import statistics
import subprocess
import sys
import time

from perfbench import cases
from perfbench.measure import (
    WalReader, geomean_pct, ipc_error_pct, percentile,
)


class Phase:
    """What one timed phase did: operation counts, covered instructions,
    its wall seconds, the ``(group, instructions, seconds, probe_s)`` of
    each timed operation (``kips`` is their :func:`median_rate_kips` at
    the reference host speed), and the workload's own record fields and
    per-layer values."""

    def __init__(self, attempted, failed, instructions, seconds, timed,
                 record=None, layers=None):
        self.attempted = attempted
        self.failed = failed
        self.instructions = instructions
        self.seconds = seconds
        self.timed = timed
        self.record = record or {}
        self.layers = layers or {}


class Clock:
    """Times a phase's operations one by one, with a host-speed probe
    before the first and after each, so that every operation has a probe
    on either side; ``timed`` holds what :class:`Phase` wants."""

    def __init__(self, host):
        self.host = host
        self.timed = []
        self._probe_s = host.probe()
        self._began = None

    def start(self):
        self._began = time.perf_counter()

    def stop(self, group, instructions):
        seconds = time.perf_counter() - self._began
        after = self.host.probe()
        self.timed.append((group, instructions, seconds,
                           (self._probe_s + after) / 2.0))
        self._probe_s = after


class Workload:
    """The shared shape; see the module docstring."""

    modules = ()

    def patch(self, tracer):
        pass

    def finish(self, run, phase):
        pass

    def stop(self):
        pass


def make_config(name):
    """A fresh config object: ``run()`` writes ``config._oracle_horizon``."""
    from repro.core import memory_bound_config, sandy_bridge_config

    if name == "memory_bound":
        return memory_bound_config()
    return sandy_bridge_config()


def build(case, scale, data_seed):
    from repro.workloads import get_workload

    return get_workload(case.workload).build(
        case.variant, case.input, scale, data_seed
    )


def patch_build(tracer):
    from repro.workloads import suite

    tracer.patch(suite.Workload, "build", "workloads.build_s")


def patch_core(tracer):
    """The six pipeline stages and the per-cycle MSHR sample."""
    from repro.core.pipeline import Pipeline
    from repro.memsys.mshr import MSHRFile

    for stage in ("fetch", "rename", "issue", "memory", "complete",
                  "retire"):
        tracer.patch(Pipeline, "stage_" + stage, "core.%s_s" % stage,
                     leaf=True)
    tracer.patch(MSHRFile, "sample", "core.mshr_sample_s", leaf=True)


class CoreFull(Workload):
    """Full-detail ``Simulator.run`` of every case at every pool seed."""

    name = "core-full"
    modules = ("repro.core", "repro.core.simulator", "repro.workloads")

    def patch(self, tracer):
        from repro.core.simulator import Simulator

        patch_core(tracer)
        tracer.patch(
            Simulator, "run", "core.other_s",
            on_result=lambda t, r: t.add("core.cycles", r.stats.cycles),
        )
        patch_build(tracer)

    def setup(self, run):
        self.ops = [
            (case, seed, build(case, cases.CORE_SCALE, seed))
            for seed in cases.pool_schedule(self.name, run.seed, run.seconds)
            for case in cases.CASES
        ]

    def measure(self, run):
        from repro.core.simulator import Simulator

        stats = []
        start = time.perf_counter()
        clock = Clock(run.host)
        for case, _seed, built in self.ops:
            clock.start()
            result = Simulator(built.program, make_config(case.config)).run(
                cases.CORE_BUDGETS[case.name]
            )
            clock.stop(case.name, result.stats.retired)
            stats.append(result.stats.to_dict())
        seconds = time.perf_counter() - start
        pins = run.pins[self.name]
        failed = sum(
            1 for (case, seed, _), doc in zip(self.ops, stats)
            if cases.digest(doc) != pins.get(cases.pin_key(case.name, seed))
        )
        return Phase(len(stats), failed, sum(d["retired"] for d in stats),
                     seconds, clock.timed)


class SampledRun(Workload):
    """``SampledSimulator.run`` with the banked ``bench-speed --sample``
    geometry; the pre-scan runs inline, with no trace store."""

    name = "sampled-run"
    modules = ("repro.core", "repro.perf.sample", "repro.workloads")

    def patch(self, tracer):
        from repro.core.pipeline import Pipeline
        from repro.core.warm import PortableWarmTrace
        import repro.perf.sample as sample

        def slice_counts(t, stats):
            t.add("core.cycles", stats.cycles)
            t.add("sample.detailed_instructions", stats.retired)

        patch_core(tracer)
        tracer.patch(sample, "record_portable_trace", "warm.prescan_s")
        tracer.patch(PortableWarmTrace, "materialize", "warm.materialize_s")
        tracer.patch(sample, "replay_warm_events", "warm.replay_s")
        tracer.patch(sample, "warm_advance", "sample.live_warm_s")
        tracer.patch(Pipeline, "run_slice", "sample.detailed_s",
                     on_result=slice_counts)
        tracer.patch(Pipeline, "restore_committed_state",
                     "sample.teleport_s")
        tracer.patch(Pipeline, "drain_to_committed", "sample.drain_s")
        tracer.patch(sample.SampledSimulator, "run", "sample.other_s")
        patch_build(tracer)

    def setup(self, run):
        self.ops = [
            (case, seed, build(case, cases.SAMPLED_SCALE, seed))
            for seed in cases.pool_schedule(self.name, run.seed, run.seconds)
            for case in cases.CASES
        ]

    def measure(self, run):
        from repro.perf.sample import SampledSimulator, SamplingPlan

        results = []
        start = time.perf_counter()
        clock = Clock(run.host)
        for case, _seed, built in self.ops:
            clock.start()
            plan = SamplingPlan.from_spec(cases.SAMPLED_PLAN)
            result = SampledSimulator(
                built.program, make_config(case.config), plan
            ).run(cases.SAMPLED_BUDGET)
            clock.stop(case.name, result.stats.retired)
            results.append((result.stats.to_dict(), result.ipc,
                            result.sampling))
        seconds = time.perf_counter() - start
        pins = run.pins[self.name]
        failed = 0
        pairs = []
        for (case, seed, _), (doc, ipc, _report) in zip(self.ops, results):
            pin = pins.get(cases.pin_key(case.name, seed))
            if pin is None or cases.digest(doc) != pin["digest"]:
                failed += 1
                continue
            pairs.append((ipc, pin["truth_ipc"]))
        error = ipc_error_pct(pairs) if pairs else None
        ci95 = geomean_pct([r["ipc_rel_ci95"] * 100.0
                            for _, _, r in results])
        return Phase(
            len(results), failed,
            sum(doc["retired"] for doc, _, _ in results), seconds,
            clock.timed,
            record={"ipc_error_pct": error,
                    "ipc": [round(ipc, 6) for _, ipc, _ in results]},
            layers={"sample.intervals": sum(r["intervals"]
                                            for _, _, r in results),
                    "sample.ci95_pct": ci95,
                    "sample.ipc_error_pct": error or 0.0},
        )


def sweep_points(seed):
    """One sweep's points (fresh configs) and their pin keys."""
    from repro.core.config import scale_window
    from repro.perf.sweep import SweepPoint

    points, keys = [], []
    for case in cases.CASES:
        for rob in cases.SWEEP_ROBS:
            points.append(SweepPoint(
                case.workload, case.variant, case.input,
                config=scale_window(make_config(case.config), rob),
                scale=cases.SWEEP_SCALE, seed=seed,
                max_instructions=cases.SWEEP_BUDGET,
                sampling=cases.SWEEP_PLAN,
            ))
            keys.append(cases.pin_key(case.name, seed, rob))
    return points, keys


class Sweep(Workload):
    """``run_supervised_sweep`` over the cases x ROB sizes, once per pool
    seed, with a cold trace store and a cold result cache."""

    name = "sweep"
    modules = ("repro.core", "repro.core.config", "repro.perf.cache",
               "repro.perf.sweep", "repro.perf.tracestore",
               "repro.rel.supervise", "repro.workloads")

    def patch(self, tracer):
        import repro.core.warm as warm
        import repro.rel.supervise as supervise
        from repro.perf.cache import ResultCache
        from repro.perf.tracestore import TraceStore

        def stored(t, path):
            if path is not None:
                t.add("tracestore.store_bytes", os.path.getsize(path))

        tracer.patch(supervise, "run_supervised_sweep", "supervise.other_s")
        tracer.patch(supervise, "prewarm_traces", "supervise.prewarm_s")
        # prewarm_traces imports the recorder at call time, from here.
        tracer.patch(warm, "record_portable_trace", "warm.prescan_s")
        tracer.patch(TraceStore, "store", "tracestore.store_s",
                     on_result=stored)
        tracer.patch(ResultCache, "load", "cache.probe_s")
        tracer.patch(ResultCache, "store", "cache.store_s")
        patch_build(tracer)

    def setup(self, run):
        self.sweeps = [
            sweep_points(seed)
            for seed in cases.pool_schedule(self.name, run.seed, run.seconds)
        ]

    def measure(self, run):
        import repro.rel.supervise as supervise
        from repro.perf.cache import ResultCache
        from repro.perf.tracestore import TraceStore

        done = []
        start = time.perf_counter()
        clock = Clock(run.host)
        for points, keys in self.sweeps:
            clock.start()
            outcomes = supervise.run_supervised_sweep(
                points, jobs=cases.SWEEP_JOBS,
                cache=ResultCache(root=run.cache_dir),
                trace_store=TraceStore(root=run.trace_dir),
            )
            clock.stop("sweep", sum(o.result.stats.retired
                                    for o in outcomes
                                    if o.ok and o.result is not None))
            done.extend(zip(keys, outcomes))
        seconds = time.perf_counter() - start
        pins = run.pins[self.name]
        failed = sum(
            1 for key, o in done
            if not o.ok or o.result is None
            or cases.payload_digest(o.result.payload) != pins.get(key)
        )
        ok = [o for _, o in done if o.ok and o.result is not None]
        worker = sum(o.seconds for _, o in done)
        return Phase(
            len(done), failed, sum(o.result.stats.retired for o in ok),
            seconds, clock.timed,
            layers={
                "supervise.worker_s": worker,
                "supervise.dispatch_s": sum(o.elapsed - o.seconds
                                            for _, o in done),
                "supervise.worker_busy_frac": (
                    worker / (cases.SWEEP_JOBS * seconds)),
            },
        )


class Serve(Workload):
    """Jobs over HTTP to a ``repro serve`` daemon: an open-loop phase at a
    fixed rate, then bursts, each sent back to back and waited for before
    the next.  One client thread, one connection at a time.  The service
    layers run in the daemon, out of the tracer's reach; traced runs time
    the client side (``serve.spawn_s``, ``client.post_s``,
    ``client.wait_s``) and split each job's latency from the WAL."""

    name = "serve"
    modules = ("repro.core.simulator", "repro.perf.cache",
               "repro.serve.queue", "repro.workloads")

    def __init__(self):
        self.process = None

    def setup(self, run):
        root = os.path.join(run.run_dir, "service")
        self.addr_path = os.path.join(root, "http.addr")
        self.wal = WalReader(os.path.join(root, "wal.jsonl"))
        with run.tracer.span("serve.spawn_s"):
            self.log = open(os.path.join(run.run_dir, "daemon.log"), "wb")
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", root,
                 "--port", "0", "--jobs", str(cases.SERVE_DAEMON_JOBS)],
                cwd=run.root, env=run.env,
                stdout=self.log, stderr=subprocess.STDOUT,
            )
            self._wait_healthy()

    def _wait_healthy(self, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                with open(self.log.name, "rb") as fh:
                    tail = fh.read()[-2000:].decode("utf-8", "replace")
                raise RuntimeError("repro serve exited with code %d:\n%s"
                                   % (self.process.returncode, tail))
            try:
                with open(self.addr_path) as fh:
                    host, _, port = fh.read().strip().rpartition(":")
                self.host, self.port = host, int(port)
                status, _ = self._request("GET", "/healthz")
                if status == 200:
                    return
            except (OSError, ValueError, http.client.HTTPException):
                pass
            time.sleep(0.01)
        raise RuntimeError("repro serve not healthy after %.0f s" % timeout)

    def _request(self, method, path, body=None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30.0)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def _post(self, run, spec, due):
        """Submit one job; anything but ``201 Created`` is a failed job."""
        send = time.time()
        with run.tracer.span("client.post_s"):
            try:
                status, raw = self._request("POST", "/jobs", json.dumps(spec))
            except (OSError, http.client.HTTPException):
                status, raw = None, b""
        rtt = time.time() - send
        job_id = json.loads(raw).get("job_id") if status == 201 else None
        return {"spec": spec, "due": due, "send": send, "rtt": rtt,
                "status": status, "job_id": job_id}

    def _wait_terminal(self, run, jobs, timeout=30.0):
        deadline = time.monotonic() + timeout
        with run.tracer.span("client.wait_s"):
            while time.monotonic() < deadline:
                self.wal.poll()
                if all(self.wal.terminal(job["job_id"]) is not None
                       for job in jobs if job["job_id"] is not None):
                    return
                time.sleep(0.02)

    def measure(self, run):
        from repro.perf.cache import CachedSimResult

        size = cases.SERVE_BURST_JOBS
        open_specs = cases.serve_specs(run.seed, cases.SERVE_OPEN_JOBS)
        burst_specs = cases.serve_specs(
            run.seed, cases.SERVE_BURSTS * size,
            offset=cases.SERVE_OPEN_JOBS,
        )
        start = time.time()
        self.open_jobs = []
        for j, spec in enumerate(open_specs):
            due = start + j / cases.SERVE_OPEN_RATE
            with run.tracer.span("client.wait_s"):
                delay = due - time.time()
                if delay > 0:
                    time.sleep(delay)
            self.open_jobs.append(self._post(run, spec, due))
        self._wait_terminal(run, self.open_jobs)
        # Each burst is timed from the WAL; the host-speed probes on either
        # side of it run while the daemon is idle.
        bursts = []
        before = run.host.probe()
        for b in range(cases.SERVE_BURSTS):
            first_post = time.time()
            burst = [self._post(run, spec, first_post)
                     for spec in burst_specs[b * size:(b + 1) * size]]
            self._wait_terminal(run, burst)
            after = run.host.probe()
            bursts.append((first_post, burst, (before + after) / 2.0))
            before = after
        self.burst_jobs = [job for _, burst, _ in bursts for job in burst]
        jobs = self.open_jobs + self.burst_jobs
        for job in jobs:
            job["end"] = (self.wal.terminal(job["job_id"])
                          if job["job_id"] is not None else None)
            job["done"] = job["end"] is not None and job["end"]["op"] == "done"
        # One timed operation per burst: its done jobs' instructions over
        # last ``done`` ts - first ``lease`` ts.  Timing from the first
        # lease leaves out the wait for the daemon's next idle poll (up to
        # 0.2 s, a phase of its fixed poll cycle, not of its throughput).
        timed, rates = [], []
        for first_post, burst, probe_s in bursts:
            done = [job for job in burst if job["done"]]
            first_lease = min((self.wal.jobs[job["job_id"]].get(
                "lease", first_post) for job in done), default=first_post)
            window = max((job["end"]["ts"] for job in done),
                         default=first_lease) - first_lease
            timed.append(("burst", sum(
                CachedSimResult(job["end"]["payload"]).stats.retired
                for job in done
            ), window, probe_s))
            if window > 0:
                rates.append(len(done) / window)
        failed = sum(1 for job in jobs if not job["done"])
        return Phase(len(jobs), failed, sum(op[1] for op in timed),
                     sum(op[2] for op in timed), timed,
                     layers=self._layers(rates))

    def _layers(self, burst_rates):
        inf = float("inf")
        latencies = [job["end"]["ts"] - job["due"] if job["done"] else inf
                     for job in self.open_jobs]
        done = [job for job in self.open_jobs if job["done"]]
        n = max(1, len(done))

        def mean(fn):
            return sum(fn(job) for job in done) / n

        def lease_ts(job):
            return self.wal.jobs[job["job_id"]].get("lease", job["send"])

        run_s = mean(lambda job: job["end"]["ts"] - lease_ts(job))
        worker_s = mean(lambda job: job["end"].get("seconds", 0.0))
        total_jobs = len(self.open_jobs) + len(self.burst_jobs)
        return {
            "serve.http_s": mean(lambda job: job["rtt"]),
            "serve.queue_wait_s": mean(
                lambda job: lease_ts(job)
                - self.wal.jobs[job["job_id"]]["submit"]),
            "serve.run_s": run_s,
            "serve.worker_s": worker_s,
            "serve.dispatch_s": run_s - worker_s,
            "serve.wal_bytes_per_job": self.wal.size / total_jobs,
            "serve.generator_late_s": percentile(
                [job["send"] - job["due"] for job in self.open_jobs], 0.9),
            "serve.latency_p50_s": percentile(latencies, 0.5),
            "serve.latency_p90_s": percentile(latencies, 0.9),
            "serve.jobs_per_s": (statistics.median(burst_rates)
                                 if burst_rates else 0.0),
        }

    def finish(self, run, phase):
        """Re-run a few burst jobs in this process and compare their stats
        with the ``done`` payloads; then drain the daemon."""
        try:
            phase.failed += self._recheck()
        finally:
            self.stop()
        limit = cases.SERVE_LATENCY_LIMIT_S
        phase.record.update({
            "latency_p50_s": phase.layers["serve.latency_p50_s"],
            "latency_p90_s": phase.layers["serve.latency_p90_s"],
            "latency_limit_s": limit,
            "over_limit": sum(
                1 for job in self.open_jobs
                if not job["done"] or job["end"]["ts"] - job["due"] > limit),
            "jobs_per_s": phase.layers["serve.jobs_per_s"],
            "generator_late_s": phase.layers["serve.generator_late_s"],
        })

    def _recheck(self):
        from repro.core.simulator import Simulator
        from repro.perf.cache import CachedSimResult
        from repro.serve.queue import point_from_spec
        from repro.workloads import get_workload

        mismatched = 0
        for job in self.burst_jobs[: cases.SERVE_RECHECKS]:
            if not job["done"]:
                continue  # already counted as failed
            point = point_from_spec(job["spec"])
            built = get_workload(point.workload).build(
                point.variant, point.input_name, point.scale, point.seed
            )
            fresh = Simulator(built.program, point.config).run(
                point.max_instructions, point.warmup_instructions
            )
            served = CachedSimResult(job["end"]["payload"]).stats
            if fresh.stats.to_dict() != served.to_dict():
                mismatched += 1
        return mismatched

    def stop(self):
        """Drain the daemon and wait for it; kill it if it hangs."""
        if self.process is None:
            return
        try:
            if self.process.poll() is None:
                try:
                    self._request("POST", "/drain")
                except (OSError, http.client.HTTPException):
                    self.process.terminate()
                try:
                    self.process.wait(timeout=30.0)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait()
        finally:
            self.process = None
            self.log.close()


WORKLOADS = {cls.name: cls for cls in (CoreFull, SampledRun, Sweep, Serve)}
