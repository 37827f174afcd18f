"""Measurement helpers: percentiles, throughput, host speed, IPC error,
WAL parsing, host noise.

Nothing here imports ``repro``; the tests exercise these helpers alone.
"""

import json
import math
import os
import platform
import resource
import statistics
import time

#: A percentile is reported only when at least this many samples lie
#: beyond it; fewer make its value a handful of outliers.
MIN_BEYOND = 10


def percentile(values, q):
    """Nearest-rank *q*-quantile of *values* (0 < q < 1).

    Raises ``ValueError`` when fewer than :data:`MIN_BEYOND` samples rank
    above it: p50 needs 20 samples, p90 needs 100.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("quantile %r is not in (0, 1)" % (q,))
    ordered = sorted(values)
    n = len(ordered)
    # round() absorbs float error such as 0.9 * 100 == 90.00000000000001.
    rank = max(1, math.ceil(round(q * n, 9)))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise ValueError(
            "p%g of %d samples has %d beyond it (needs %d)"
            % (q * 100, n, beyond, MIN_BEYOND)
        )
    return ordered[rank - 1]


#: Loop iterations of one host-speed probe repetition.
PROBE_LOOPS = 100_000
#: What one repetition takes on the reference host (a 2-vCPU Intel Xeon
#: VM, Python 3.11.7); throughput is stated at that host speed.  A fixed
#: constant of the benchmark: changing it rescales every ``kips``.
PROBE_REF_S = 0.0125


def spin(loops):
    """The probe's work: interpreter dispatch, integer arithmetic and
    list indexing, allocating nothing but ints, so that only the speed of
    the CPU the process runs on moves its time."""
    regs = [0, 1, 2, 3, 4, 5, 6, 7]
    acc = 0
    for i in range(loops):
        acc = (acc + regs[i & 7] * 3) & 0xFFFF
        regs[i & 7] = acc
    return acc


class HostSpeed:
    """How fast the host runs right now, probed between timed operations.

    A shared host drifts by 10-40% over seconds to minutes, and CPU time
    moves with wall time.  The probe is the benchmark's own code and
    never changes, so its time tracks only the host: each operation's
    wall seconds are rescaled to the reference host speed by the probes
    on either side of it.
    """

    def __init__(self):
        self.samples = []

    def probe(self):
        """Median of three repetitions of :func:`spin`, in seconds."""
        times = []
        for _ in range(3):
            start = time.perf_counter()
            spin(PROBE_LOOPS)
            times.append(time.perf_counter() - start)
        self.samples.append(sorted(times)[1])
        return self.samples[-1]

    def report(self):
        """Host speed against the reference (>1 is faster) over the
        run's probes."""
        speeds = sorted(PROBE_REF_S / t for t in self.samples)
        if not speeds:
            return None
        return {"median": statistics.median(speeds), "min": speeds[0],
                "max": speeds[-1], "probes": len(speeds)}


def median_rate_kips(ops):
    """Throughput in kIPS of timed operations, robust to a slow stretch
    of the host.

    *ops* are ``(group, instructions, seconds)`` triples; the operations
    of a group do alike work (one case at several data seeds, or one
    sweep at several).  Each group's rate is the median
    instructions-per-second of its operations, and the result is all the
    instructions over the time they take at their group's median rate.
    An operation slowed by host interference is outvoted by the others
    of its group as long as fewer than half of them were hit; a change
    that makes every operation of a group faster or slower moves it.
    """
    # An operation that covered nothing (it failed) has no rate.
    ops = [op for op in ops if op[1] > 0]
    if not ops:
        return 0.0
    rates = {}
    for group, instructions, seconds in ops:
        rates.setdefault(group, []).append(instructions / seconds)
    median = {group: statistics.median(r) for group, r in rates.items()}
    total = sum(instructions for _, instructions, _ in ops)
    at_median = sum(instructions / median[group]
                    for group, instructions, _ in ops)
    return total / at_median / 1000.0


def geomean_pct(values_pct):
    """Geomean of percentages, taken over ``1 + v/100`` so that zeros are
    fine.  The factors are sorted first so the value does not depend on
    the order of the runs."""
    if not values_pct:
        raise ValueError("no values")
    product = 1.0
    for value in sorted(values_pct):
        product *= 1.0 + value / 100.0
    return (product ** (1.0 / len(values_pct)) - 1.0) * 100.0


def ipc_error_pct(pairs):
    """Geomean |IPC error| in percent over ``(sampled, truth)`` pairs,
    computed as ``repro bench-speed --sample`` does: each case's signed
    error is rounded to 3 decimals first, the geomean to 3 decimals last.
    """
    return round(geomean_pct(
        [abs(round((s - t) / t * 100.0, 3)) for s, t in pairs]
    ), 3)


class WalReader:
    """Incremental reader of a service WAL (one JSON record per line).

    Only newline-terminated lines are consumed, so a record the daemon is
    still appending (or a torn tail a crash left behind) is skipped until
    it is complete; a line that does not decode or parse is dropped.
    """

    def __init__(self, path):
        self.path = path
        self.offset = 0
        self.size = 0
        #: job_id -> {"submit": ts, "lease": ts, "end": record}
        self.jobs = {}

    def poll(self):
        """Fold the complete lines appended since the last poll."""
        try:
            with open(self.path, "rb") as fh:
                fh.seek(self.offset)
                chunk = fh.read()
        except FileNotFoundError:
            return 0
        end = chunk.rfind(b"\n")
        if end < 0:
            return 0
        self.offset += end + 1
        self.size = self.offset
        folded = 0
        for raw in chunk[: end + 1].splitlines():
            try:
                doc = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                continue
            if isinstance(doc, dict) and isinstance(doc.get("job_id"), str):
                self._fold(doc)
                folded += 1
        return folded

    def _fold(self, doc):
        job = self.jobs.setdefault(doc["job_id"], {})
        op = doc.get("op")
        if op == "submit":
            job.setdefault("submit", doc.get("ts"))
        elif op == "lease":
            job["lease"] = doc.get("ts")
        elif op in ("done", "failed", "dead") and "end" not in job:
            job["end"] = doc

    def terminal(self, job_id):
        """The job's first terminal record, or ``None`` while it is live."""
        return self.jobs.get(job_id, {}).get("end")


class HostNoise:
    """CPU time, steal time and host identity around one run.

    Reported, never gated: they explain an outlier run instead of letting
    it be averaged away.
    """

    def __init__(self):
        self.start_cpu = self._cpu_seconds()
        self.start_steal = self._steal_seconds()

    @staticmethod
    def _cpu_seconds():
        times = os.times()
        return (times.user + times.system
                + times.children_user + times.children_system)

    @staticmethod
    def _steal_seconds():
        try:
            with open("/proc/stat") as fh:
                fields = fh.readline().split()
        except OSError:
            return None
        if len(fields) < 9 or fields[0] != "cpu":
            return None
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")

    @staticmethod
    def _cpu_model():
        try:
            with open("/proc/cpuinfo") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return None

    def report(self):
        steal = self._steal_seconds()
        return {
            "cpu_s": round(self._cpu_seconds() - self.start_cpu, 4),
            "steal_s": (round(steal - self.start_steal, 3)
                        if steal is not None and self.start_steal is not None
                        else None),
            "nproc": os.cpu_count(),
            "cpu_model": self._cpu_model(),
            "python": platform.python_version(),
        }


def peak_rss_mb():
    """Largest RSS of this process and of its waited-for descendants."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0
