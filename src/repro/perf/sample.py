"""SMARTS-style sampled simulation: functional warm-up, detailed intervals.

A full detailed run retires every instruction through the OOO pipeline
at ~tens of KIPS.  :class:`SampledSimulator` covers the same dynamic
instruction stream but spends detailed simulation only on periodic
*measurement intervals*; between them the machine advances in warm mode
— predictors, BTB, RAS and caches stay trained while no pipeline timing
is simulated.  Warm gaps are driven by a recorded trace
(:func:`repro.core.warm.record_warm_trace`): one functional pre-scan
records the committed-path training events and snapshots architectural
state at each scheduled interval start, so a gap costs an event replay
(no instruction re-execution) plus a checker teleport.  Each period of
:class:`SamplingPlan` looks like::

    |<--------------------- period --------------------->|
    | functional warming | detailed warm-up | measured   |
    |  (warm_length)     | (detail_warmup)  | (interval) |

The detailed warm-up re-fills the pipeline-local state the warm mode
cannot train (ROB/IQ contents, MSHR overlap, store buffers) before the
measured region starts; the drain at the interval end rewinds all
speculation so warming resumes from the committed point.

Extrapolation is the standard ratio estimator: aggregate the measured
intervals' :class:`~repro.core.stats.SimStats`, scale every counter by
``total/measured`` instructions, and report per-interval IPC dispersion
as a 95% confidence interval.  Accuracy is *measured*, not assumed:
``repro bench-speed`` computes the IPC error against full runs
and gates on it (see docs/PERFORMANCE.md).

The exactness contract: sampled mode never touches full-detail runs —
``Simulator``/``Pipeline.run`` are bit-identical with this module
present (golden-stats tests enforce it), and sampled results are cached
under a distinct key (the plan fingerprint enters the digest).
"""

import math
from dataclasses import dataclass

from repro.core.config import sandy_bridge_config
from repro.core.pipeline import Pipeline
from repro.core.simulator import SimResult
from repro.core.stats import SimStats
from repro.core.warm import (
    record_portable_trace,
    replay_warm_events,
    warm_advance,
)
from repro.energy.mcpat import EnergyModel
from repro.errors import ConfigError

#: Bump when sampled-result semantics change; part of the cache key.
#: v2: trace-replay warm engine + long self-correcting intervals.
#: v3: tail stratum teleports onto a pre-scan snapshot (the portable
#: trace knows the dynamic length before marks are derived), replacing
#: the replay-then-live-warm residue; optional bounded warm_window.
SAMPLING_SCHEMA = 3

#: Conjugate golden ratio: the low-discrepancy offset sequence
#: ``frac(k * φ⁻¹)`` that jitters each period's measured interval.
_GOLDEN = 0.6180339887498949


@dataclass(frozen=True)
class SamplingPlan:
    """Interval geometry of one sampled run (instruction counts).

    ``interval_length`` instructions are measured in detail per period,
    after ``detail_warmup`` detailed ramp-up instructions; the remaining
    ``period - detail_warmup - interval_length`` advance in functional
    warm mode.  ``head_detail`` instructions at region start and
    ``tail_detail`` at region end are simulated in detail and counted
    *exactly* (an exact stratum, never extrapolated): the cold-start
    transient and the halt tail are one-offs whose cost a periodic
    sample systematically misweights — a typical workload's tail runs
    at a fraction of steady-state IPC, so a single interval
    extrapolating it swings the whole estimate.

    The default interval is *long* (thousands of instructions) on
    purpose: the drain at each interval boundary empties every queue and
    MSHR, so the first ~2k measured instructions run against an
    artificially uncongested machine and overshoot steady-state IPC.
    That transient self-corrects within the window when the window is
    long enough; a short interval measures mostly transient and is
    biased no matter how many samples average over it.
    """

    interval_length: int = 2500
    detail_warmup: int = 200
    period: int = 14000
    head_detail: int = 2000
    tail_detail: int = 2000
    #: Bounded functional-warming window (instructions of recorded
    #: events replayed before each detailed window).  0 — the default —
    #: replays every event in each warm gap, training warm state over
    #: the complete committed stream (exact SMARTS-style functional
    #: warming).  A positive W replays only the last W instructions'
    #: events before each teleport target: long-period plans stop
    #: paying replay for the whole gap and sweep reuse gets cheap, at
    #: the cost of cache/predictor state older than W instructions.
    #: An approximation knob, so it enters the plan fingerprint (and
    #: thus every cache key) whenever nonzero.
    warm_window: int = 0

    def validate(self):
        if self.head_detail < 0:
            raise ConfigError(
                "sampling head_detail cannot be negative (got %d)"
                % self.head_detail
            )
        if self.tail_detail < 0:
            raise ConfigError(
                "sampling tail_detail cannot be negative (got %d)"
                % self.tail_detail
            )
        if self.interval_length <= 0:
            raise ConfigError(
                "sampling interval_length must be positive (got %d)"
                % self.interval_length
            )
        if self.detail_warmup < 0:
            raise ConfigError(
                "sampling detail_warmup cannot be negative (got %d)"
                % self.detail_warmup
            )
        if self.period < self.interval_length + self.detail_warmup:
            raise ConfigError(
                "sampling period (%d) must cover detail_warmup + "
                "interval_length (%d + %d)"
                % (self.period, self.detail_warmup, self.interval_length)
            )
        if self.warm_window < 0:
            raise ConfigError(
                "sampling warm_window cannot be negative (got %d)"
                % self.warm_window
            )
        return self

    @property
    def warm_length(self):
        """Functional-warming instructions per period."""
        return self.period - self.interval_length - self.detail_warmup

    def fingerprint(self):
        """Canonical identity string; enters cache keys and journal keys.

        ``warm_window`` is appended only when nonzero, so every plan
        from before the knob existed keeps its fingerprint (and its
        cached results).
        """
        base = (
            "sample/v%d:interval=%d:warmup=%d:period=%d:head=%d:tail=%d"
            % (
                SAMPLING_SCHEMA, self.interval_length, self.detail_warmup,
                self.period, self.head_detail, self.tail_detail,
            )
        )
        if self.warm_window:
            base += ":window=%d" % self.warm_window
        return base

    def to_dict(self):
        return {
            "interval_length": self.interval_length,
            "detail_warmup": self.detail_warmup,
            "period": self.period,
            "head_detail": self.head_detail,
            "tail_detail": self.tail_detail,
            # A constant: the sampled golden, cached payloads and the
            # benchmark's sweep pins all digest this report.
            "checkpoints": False,
            "warm_window": self.warm_window,
        }

    _SPEC_KEYS = {
        "interval": "interval_length",
        "warmup": "detail_warmup",
        "period": "period",
        "head": "head_detail",
        "tail": "tail_detail",
        "window": "warm_window",
    }

    @classmethod
    def from_spec(cls, spec):
        """Parse a CLI spec: ``default`` or ``interval=800,warmup=200,period=4000``.

        Unspecified fields keep their defaults.  Raises
        :class:`~repro.errors.ConfigError` on unknown keys or bad values.
        """
        if spec is None or spec in ("", "default"):
            return cls().validate()
        fields = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            attr = cls._SPEC_KEYS.get(key.strip())
            if not sep or attr is None:
                raise ConfigError(
                    "bad sampling spec %r: expected comma-separated "
                    "interval=N, warmup=N, period=N" % (spec,)
                )
            try:
                fields[attr] = int(value)
            except ValueError:
                raise ConfigError(
                    "bad sampling spec %r: %r is not an integer"
                    % (spec, value.strip())
                ) from None
        return cls(**fields).validate()


@dataclass
class SampledSimResult(SimResult):
    """A :class:`SimResult` whose stats are extrapolated from samples.

    ``stats`` holds the whole-run extrapolation; ``sampling`` carries
    the honest accounting (intervals, measured fraction, confidence
    interval).  The memory-system *metrics* (cache and MSHR counters)
    reflect warm state as of run end, with per-slice counters covering
    the final detailed interval only — the extrapolated event counters
    in ``stats`` are the whole-run estimates.
    """

    sampling: dict = None
    _mshr_histogram: dict = None
    #: Warm-trace provenance ({source, key, events, budget}); carried on
    #: the result object only — deliberately NOT part of ``sampling``,
    #: so a store-served run's report stays byte-identical to an
    #: inline-recorded one.
    trace_info: dict = None

    def mshr_histogram(self):
        """Aggregated per-cycle MSHR occupancy over measured intervals."""
        return dict(self._mshr_histogram or {})


class SampledSimulator:
    """Drop-in for :class:`~repro.core.simulator.Simulator`, sampled.

    Covers exactly the same committed instruction stream as a full run
    (the program advances functionally through the warm gaps), so the
    final architectural state matches a full-detail run; only the
    timing is estimated.
    """

    def __init__(self, program, config=None, plan=None, trace=None,
                 trace_store=None):
        self.program = program
        self.config = config if config is not None else sandy_bridge_config()
        self.plan = (plan if plan is not None else SamplingPlan()).validate()
        #: Optional pre-recorded :class:`PortableWarmTrace` — the sweep
        #: scheduler hands the shared trace in directly when it already
        #: holds it in memory.
        self.trace = trace
        #: Optional :class:`~repro.perf.tracestore.TraceStore`; when set
        #: (and no explicit trace is given) the pre-scan is served from
        #: the store, recording and persisting on a miss.
        self.trace_store = trace_store

    def run(self, max_instructions=None, warmup_instructions=0, observer=None):
        """Run the sampled loop; returns a :class:`SampledSimResult`."""
        if max_instructions is None:
            raise ConfigError(
                "sampled simulation needs an instruction budget "
                "(max_instructions)"
            )
        plan = self.plan
        warmup = warmup_instructions
        limit = warmup + max_instructions
        detail = plan.detail_warmup + plan.interval_length
        self.config._oracle_horizon = limit + 50_000
        pipeline = Pipeline(self.program, self.config)
        if observer is not None:
            pipeline.attach_observer(observer)
        checker = pipeline.checker
        obs = pipeline.obs
        # The interval schedule is fully deterministic *in absolute
        # instruction positions* (golden-ratio jitter inside each
        # period; see below), so a single functional pre-scan can record
        # the warm-event trace, the true dynamic length (programs may
        # halt well inside the budget), and an architectural snapshot at
        # every scheduled interval start.  Each warm gap in the main
        # loop then costs one event replay (caches/predictors/BTB/RAS
        # train from the recorded stream — no instruction re-execution)
        # plus a checker teleport onto the pre-scan snapshot.
        portable = self.trace
        source = "provided"
        key = None
        if portable is None:
            if self.trace_store is not None:
                key = self.trace_store.key_for(
                    self.program, self.config, limit
                )
                portable, source = self.trace_store.get_or_record(
                    pipeline, limit, key=key
                )
            else:
                portable = record_portable_trace(pipeline, limit)
                source = "inline"
        total_abs, _clip_halted = portable.clip(limit)
        window = plan.warm_window

        marks = [0, warmup]
        snap_marks = [warmup] if warmup else []
        starts = []
        k = 0
        while True:
            s = self._interval_start(plan, warmup, k)
            k += 1
            if s + detail > limit:
                break
            starts.append(s)
            snap_marks.append(s)
            marks.append(s + detail)
        if plan.head_detail:
            marks.append(warmup + plan.head_detail)
        # The portable trace knows the dynamic length up front, so the
        # tail stratum's start gets a first-class snapshot: the final
        # gap teleports like any other instead of replaying to the
        # nearest earlier snapshot and live-warming the residue.
        tail_pos = max(warmup, total_abs - plan.tail_detail)
        snap_marks.append(tail_pos)
        if window:
            # Bounded warming replays only the last `window`
            # instructions' events before each target, so every
            # teleport target needs a recorded offset at its window
            # start too.
            marks.extend(max(0, t - window) for t in snap_marks)
        trace = portable.materialize(pipeline, limit, marks, snap_marks)

        merged = SimStats()
        mshr_histogram = {}
        ipc_samples = []
        intervals = 0
        measured = 0

        def collect_mshr():
            for occ, count in pipeline.mshr.occupancy_histogram.items():
                mshr_histogram[occ] = mshr_histogram.get(occ, 0) + count

        # The superscalar core retires in groups, so a detailed slice can
        # overshoot its nominal boundary by up to retire-width - 1
        # instructions; ``last_mark`` is the marked position at or just
        # below the committed point, giving every replay a recorded
        # starting offset.  The few overshot instructions' events replay
        # twice (double-training a couple of branches per gap) — a
        # negligible warm-state approximation.
        last_mark = 0

        def teleport(target):
            # Fast warm gap: replay recorded events, adopt the pre-scan
            # snapshot as committed state, and notify observers exactly
            # as warm_advance would (the invariant checker fast-forwards
            # its own oracle on the skip event).
            nonlocal last_mark
            cur = checker.retired
            start = last_mark
            if window and target - start > window:
                start = max(0, target - window)
            replay_warm_events(
                pipeline, trace, trace.offsets[start],
                trace.offsets[target],
            )
            pipeline.restore_committed_state(trace.snapshots[target], target)
            last_mark = target
            if obs is not None:
                obs.on_warm_skip(pipeline, target - cur)

        # The pre-region warm-up budget trains warm state only — replay
        # it.  (If the program halts inside the warm-up there is no
        # snapshot to land on; fall back to live warm mode.)
        if warmup:
            if warmup in trace.snapshots:
                teleport(warmup)
            else:
                warm_advance(pipeline, warmup)
                last_mark = warmup if warmup in trace.offsets else 0
        region_start = checker.retired
        # Tail stratum start and (possibly truncated) head stratum end,
        # in absolute positions — both known exactly from the pre-scan.
        tail_start = max(region_start, total_abs - plan.tail_detail)
        head_end = min(region_start + plan.head_detail, tail_start)
        exact = SimStats()
        if not checker.state.halted:
            # Exact stratum, part one: the detailed head.
            if head_end > region_start:
                exact.merge(pipeline.run_slice(head_end - region_start, 0))
                collect_mshr()
                pipeline.drain_to_committed()
                if head_end in trace.offsets:
                    last_mark = head_end
            # Stratified sampling: one measured interval per period, at
            # a jittered offset inside it.  Tight simulation loops have
            # periodic IPC structure; period-aligned intervals alias
            # with it and the estimate swings wildly with the geometry.
            # The golden-ratio offset sequence is the standard
            # deterministic de-aliaser: low-discrepancy (covers offsets
            # evenly), never resonates with any loop period, and keeps
            # runs reproducible (no RNG).
            for s in starts:
                if s < checker.retired:
                    continue
                if s + detail > tail_start:
                    break
                if s > checker.retired:
                    teleport(s)
                if checker.state.halted:
                    break
                stats = pipeline.run_slice(
                    plan.interval_length, plan.detail_warmup
                )
                intervals += 1
                measured += stats.retired
                merged.merge(stats)
                if stats.cycles and stats.retired:
                    ipc_samples.append(stats.retired / stats.cycles)
                collect_mshr()
                pipeline.drain_to_committed()
                last_mark = s + detail
            # Final gap into the tail stratum: teleport straight onto
            # its snapshot (derived at materialize time from the known
            # dynamic length).  The fallback covers the rare geometry
            # where the snapshot is absent (e.g. the tail start falls
            # at a position the clip excluded): replay to the last
            # snapshotted position before it, then live-warm the
            # residue (bounded by one period).
            if not checker.state.halted and checker.retired < tail_start:
                if tail_start in trace.snapshots:
                    teleport(tail_start)
                else:
                    jumpable = [
                        p for p in trace.snapshots
                        if checker.retired < p <= tail_start
                    ]
                    if jumpable:
                        teleport(max(jumpable))
                    if checker.retired < tail_start:
                        warm_advance(
                            pipeline, tail_start - checker.retired
                        )
            # Exact stratum, part two: the halt tail, measured in full.
            remaining = total_abs - checker.retired
            if remaining > 0 and not checker.state.halted:
                exact.merge(pipeline.run_slice(remaining, 0))
                collect_mshr()
                pipeline.drain_to_committed()
        total = checker.retired - region_start
        stats = self._extrapolate(exact, merged, measured, total)
        sampling = self._sampling_report(
            plan, intervals, measured, total, exact, stats, ipc_samples
        )
        energy = EnergyModel(self.config).report(stats)
        return SampledSimResult(
            program_name=self.program.name or "<unnamed>",
            config=self.config,
            stats=stats,
            energy=energy,
            pipeline=pipeline,
            sampling=sampling,
            _mshr_histogram=mshr_histogram,
            trace_info={
                "source": source,
                "key": key,
                "budget": limit,
                "events": len(portable.kinds),
            },
        )

    @staticmethod
    def _interval_start(plan, warmup, k):
        """Absolute start position of the *k*-th detailed window.

        Window *k* lands inside period *k* (periods start after the head
        stratum) at a golden-ratio jittered offset within the period's
        slack, so the window always fits the period.
        """
        slack = plan.period - plan.detail_warmup - plan.interval_length
        jitter = int(slack * ((k * _GOLDEN) % 1.0))
        return warmup + plan.head_detail + k * plan.period + jitter

    @staticmethod
    def _extrapolate(exact, merged, measured, total):
        """Stratified ratio estimator: exact strata + scaled sampled rest.

        The exact stratum's counters (detailed head + halt tail) enter
        the estimate unscaled; the sampled stratum's counters scale by
        ``rest_total / measured``.  The two headline counters are
        pinned: the instruction count is known exactly, and rest cycles
        follow from the measured-IPC ratio (scaling both sides keeps
        IPC; rounding them independently would not).
        """
        rest_total = total - exact.retired
        if not measured or measured >= rest_total:
            return merged.merge(exact)
        stats = merged.scaled(rest_total / measured)
        rest_cycles = (
            max(1, round(rest_total / merged.ipc))
            if merged.ipc else stats.cycles
        )
        stats.merge(exact)
        stats.retired = total
        stats.cycles = exact.cycles + rest_cycles
        return stats

    @staticmethod
    def _sampling_report(plan, intervals, measured, total, exact, stats,
                         ipc_samples):
        n = len(ipc_samples)
        mean = sum(ipc_samples) / n if n else 0.0
        if n > 1:
            var = sum((x - mean) ** 2 for x in ipc_samples) / (n - 1)
            stddev = math.sqrt(var)
            ci95 = 1.96 * stddev / math.sqrt(n)
        else:
            stddev = ci95 = 0.0
        ipc = stats.ipc
        # The CI on whole-run IPC: only the sampled stratum's cycles are
        # uncertain, so the per-interval dispersion is damped by the
        # stratum's share of the estimated cycles.
        rest_share = (
            (stats.cycles - exact.cycles) / stats.cycles
            if stats.cycles else 0.0
        )
        rel_ci = (ci95 / mean) * rest_share if mean else 0.0
        return {
            "schema": SAMPLING_SCHEMA,
            "mode": "sampled",
            "plan": plan.to_dict(),
            "fingerprint": plan.fingerprint(),
            "intervals": intervals,
            "exact_instructions": exact.retired,
            "exact_cycles": exact.cycles,
            "measured_instructions": measured,
            "total_instructions": total,
            "measured_fraction": (
                (measured + exact.retired) / total if total else 0.0
            ),
            "ipc": ipc,
            "ipc_mean": mean,
            "ipc_stddev": stddev,
            "ipc_ci95": ci95,
            "ipc_rel_ci95": rel_ci,
        }
