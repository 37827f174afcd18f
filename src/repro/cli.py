"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``      the workload registry (Table I's applications)
``run``          simulate one workload binary and print its summary
``compare``      base vs a CFD/DFD/TQ variant (speedup, overhead, energy)
``profile``      PIN-style branch profile of a binary (top mispredictors)
``classify``     the Figure 6 classification study
``trace``        per-cycle trace of a run (Chrome/Perfetto or JSONL events)
``disasm``       disassembly listing of a built workload binary
``bench-speed``  sampled-engine KIPS and IPC error vs full detail (gated)
``cache-prune``  shrink the result cache and warm-trace store (LRU)
``lint``         static CFD contract verification of built binaries
``lint-host``    concurrency/durability lint of the repo's own service
                 stack (lockset, atomic-write, torn-tail, determinism;
                 docs/STATIC_ANALYSIS.md) and FS-sanitizer trace audit
``top``          live progress view of a telemetry-enabled sweep
``tail``         stream a sweep's telemetry spool events
``metrics-export``  Prometheus text format from a spool or manifest
``trace-merge``  stitch per-run Chrome traces into one Perfetto trace
``serve``        crash-safe simulation service daemon (WAL job queue +
                 supervised worker fleet + HTTP API; docs/SERVICE.md)
``submit``       submit one job to a service (``--queue`` WAL-direct or
                 ``--url`` HTTP); ``--wait`` blocks until it settles
``jobs``         inspect a service's job queue (counts, states, results)
``drain``        gracefully stop a daemon; exit 0 iff nothing stays leased

``run``, ``compare``, ``profile``, ``classify`` and ``bench-speed``
accept ``--json`` to emit machine-readable output instead of tables;
``run --json`` prints the versioned run manifest (see
docs/OBSERVABILITY.md).  ``run`` and ``compare`` serve repeated
simulations from the persistent result cache (``~/.cache/repro``; see
docs/PERFORMANCE.md) — ``--no-cache`` forces a fresh simulation, and
``--jobs N`` fans ``compare``'s independent points over N processes.

``compare`` runs under sweep supervision (``--timeout``, ``--retries``,
``--journal``/``--resume``) and emits fleet telemetry when
``--telemetry DIR`` (or ``$REPRO_TELEMETRY_DIR``) names a spool
directory — watch it live with ``repro top DIR`` / ``repro tail DIR
--follow``.  ``run --check`` attaches the independent invariant
checker, and failures exit with distinct codes — 2 usage, 3 simulation
error, 4 invariant violation, 5 lint findings, 6 a failed
``bench-speed`` gate, 7 host lint findings (see
docs/ROBUSTNESS.md, docs/STATIC_ANALYSIS.md and docs/OBSERVABILITY.md).

Examples::

    python -m repro list
    python -m repro run soplex --variant cfd --scale 0.25 --json
    python -m repro run bzip2 --variant tq --max-instructions 100000 --sample
    python -m repro bench-speed --cases bzip2_tq --repeats 1
    python -m repro compare astar_r1 --variant dfd --config memory-bound
    python -m repro compare soplex --variant cfd --jobs 2 --telemetry /tmp/sp
    python -m repro top /tmp/sp --follow
    python -m repro tail /tmp/sp --follow
    python -m repro metrics-export /tmp/sp
    python -m repro profile mcf --top 5
    python -m repro classify --scale 0.125
    python -m repro trace soplex --variant cfd --cycles 2000
    python -m repro trace-merge trace_a.json trace_b.json -o merged.json
    python -m repro lint                      # whole registry
    python -m repro lint soplex --variant cfd --json
"""

import argparse
import json
import os
import re
import sys
import time

from repro.analysis import compare_runs, format_table
from repro.core import memory_bound_config, sandy_bridge_config, simulate
from repro.core.pipeline import Pipeline
from repro.core.trace import PipelineTracer
from repro.errors import ReproError, SimulatorInvariantError
from repro.obs.events import EventTracer, OccupancySampler
from repro.obs.export import jsonable, write_chrome_trace, write_jsonl
from repro.perf import ResultCache, SweepPoint
from repro.profiling import profile_program, run_classification_study
from repro.rel import InvariantChecker, SupervisionPolicy, run_supervised_sweep
from repro.workloads import all_workloads, get_workload

#: Distinct nonzero exit codes (see docs/ROBUSTNESS.md): argparse already
#: exits 2 on usage errors; 1 stays for command-level failures (a failed
#: compare point), so supervision tooling can tell the classes apart.
EXIT_USAGE = 2
EXIT_SIMULATION_ERROR = 3
EXIT_INVARIANT_VIOLATION = 4
EXIT_LINT_FINDINGS = 5
EXIT_PERF_REGRESSION = 6
EXIT_HOST_LINT_FINDINGS = 7

_CONFIGS = {
    "baseline": sandy_bridge_config,
    "memory-bound": memory_bound_config,
}


def _make_config(args):
    overrides = {}
    if getattr(args, "predictor", None):
        overrides["predictor"] = args.predictor
    if getattr(args, "rob", None):
        overrides["rob_size"] = args.rob
    if getattr(args, "deadlock_cycles", None):
        overrides["deadlock_cycles"] = args.deadlock_cycles
    return _CONFIGS[args.config](**overrides)


def _build(args):
    workload = get_workload(args.workload)
    return workload.build(args.variant, args.input, scale=args.scale,
                          seed=args.seed)


def _workload_identity(args):
    """The workload-identity block stored in manifests (reproducibility)."""
    return {
        "name": args.workload,
        "variant": getattr(args, "variant", "base"),
        "input": args.input,
        "scale": args.scale,
        "seed": args.seed,
    }


def _emit_json(out, payload):
    json.dump(jsonable(payload), out, indent=2, sort_keys=True)
    out.write("\n")
    return 0


def cmd_list(args, out):
    rows = [
        (w.name, w.suite, w.branch_class, ",".join(w.variants),
         ",".join(w.inputs))
        for w in all_workloads()
    ]
    out.write(format_table(
        ["workload", "suite", "class", "variants", "inputs"], rows
    ) + "\n")
    return 0


def _result_cache(args):
    """The persistent cache, or ``None`` under ``--no-cache``."""
    return None if getattr(args, "no_cache", False) else ResultCache()


def _supervision_policy(args):
    """Sweep supervision from ``--timeout/--retries/--journal/--resume``."""
    return SupervisionPolicy(
        timeout=args.timeout,
        retries=args.retries,
        journal_path=args.journal,
        resume=args.resume,
    )


def cmd_run(args, out):
    built = _build(args)
    config = _make_config(args)
    plan = None
    if args.sample is not None:
        from repro.perf.sample import SamplingPlan

        plan = SamplingPlan.from_spec(args.sample)
    # --check simulates fresh with the independent invariant checker
    # attached; a cached result would bypass the very validation asked for.
    cache = None if args.check else _result_cache(args)
    result = None
    key = None
    run_info = {"max_instructions": args.max_instructions,
                "sampling": plan.fingerprint() if plan is not None else None}
    if cache is not None:
        key = cache.key_for(
            built.program, config, args.max_instructions,
            sampling=plan.fingerprint() if plan is not None else None,
        )
        result = cache.load(key, config=config)
    if result is None:
        observer = InvariantChecker() if args.check else None
        if plan is not None:
            from repro.perf.sample import SampledSimulator

            result = SampledSimulator(built.program, config, plan).run(
                args.max_instructions, observer=observer,
            )
        else:
            result = simulate(
                built.program, config,
                max_instructions=args.max_instructions,
                observer=observer,
            )
        if cache is not None:
            cache.store_result(
                key, result,
                workload=_workload_identity(args),
                run=run_info,
            )
    if args.json:
        manifest = result.manifest(
            workload=_workload_identity(args),
            run=run_info,
        )
        return _emit_json(out, manifest)
    stats = result.stats
    out.write("program: %s\n" % built.name)
    report = getattr(result, "sampling", None)
    if report:
        out.write(
            "sampling: %s\n  %d detailed interval(s), %.1f%% measured, "
            "IPC +/-%.2f%% (95%% CI)\n" % (
                report.get("fingerprint"),
                report.get("intervals") or 0,
                100.0 * (report.get("measured_fraction") or 0.0),
                100.0 * (report.get("ipc_rel_ci95") or 0.0),
            )
        )
    for key, value in sorted(result.summary().items()):
        out.write("  %-18s %s\n" % (key, value))
    if stats.bq_pops:
        out.write("  %-18s %d (miss rate %.3f)\n" % (
            "bq_pops", stats.bq_pops, stats.bq_miss_rate))
    if stats.tq_pops:
        out.write("  %-18s %d\n" % ("tq_pops", stats.tq_pops))
    return 0


def _outcome_accounting(outcome):
    """Per-point resource accounting for ``compare --json`` consumers."""
    info = {
        "point": outcome.point.label(),
        "seconds": outcome.seconds,
        "elapsed": outcome.elapsed,
        "attempts": outcome.attempts,
        "cached": outcome.cached,
        "worker_pid": outcome.worker_pid,
        "resources": outcome.resources,
    }
    if outcome.resumed:
        info["resumed"] = True
    return info


def cmd_compare(args, out):
    workload = get_workload(args.workload)
    config = _make_config(args)
    points = [
        SweepPoint(
            workload=args.workload,
            variant=variant,
            input_name=args.input,
            config=config,
            scale=args.scale,
            seed=args.seed,
            max_instructions=args.max_instructions,
        )
        for variant in ("base", args.variant)
    ]
    outcomes = run_supervised_sweep(
        points, jobs=args.jobs, cache=_result_cache(args),
        policy=_supervision_policy(args), telemetry=args.telemetry,
    )
    for outcome in outcomes:
        if not outcome.ok:
            label = outcome.point.label()
            if outcome.timed_out:
                out.write("%s timed out after %d attempt(s) "
                          "(--timeout %.3gs)\n"
                          % (label, outcome.attempts, args.timeout))
            else:
                out.write("%s failed:\n%s\n" % (label, outcome.error))
            return 1
    base_result, var_result = (o.result for o in outcomes)
    comparison = compare_runs(
        workload.name, args.variant, base_result, var_result
    )
    if args.json:
        return _emit_json(out, {
            "kind": "repro.compare",
            "workload": _workload_identity(args),
            "comparison": comparison,
            "base": base_result.summary(),
            "variant": var_result.summary(),
            # Satellite accounting: worker-measured seconds, attempts and
            # resource deltas per point (see SweepOutcome docs).
            "outcomes": [_outcome_accounting(o) for o in outcomes],
        })
    out.write(format_table(
        ["metric", "base", args.variant],
        [
            ("retired", base_result.stats.retired, var_result.stats.retired),
            ("cycles", base_result.stats.cycles, var_result.stats.cycles),
            ("IPC", "%.3f" % base_result.stats.ipc, "%.3f" % var_result.stats.ipc),
            ("MPKI", "%.2f" % comparison.base_mpki, "%.2f" % comparison.variant_mpki),
            ("energy (uJ)", "%.1f" % (base_result.energy.total_nj / 1000),
             "%.1f" % (var_result.energy.total_nj / 1000)),
        ],
        title="%s(%s): base vs %s" % (workload.name, args.input or
                                      workload.inputs[0], args.variant),
    ) + "\n")
    out.write("speedup %.3fx  overhead %.3fx  energy reduction %.1f%%\n" % (
        comparison.speedup, comparison.overhead,
        100 * comparison.energy_reduction))
    return 0


def cmd_profile(args, out):
    built = _build(args)
    profiler = profile_program(
        built.program, max_instructions=args.max_instructions or 500_000
    )
    if args.json:
        return _emit_json(out, {
            "kind": "repro.profile",
            "workload": _workload_identity(args),
            "program": built.name,
            "total_instructions": profiler.total_instructions,
            "mpki": profiler.mpki,
            "misprediction_rate": profiler.misprediction_rate,
            "top_branches": [
                {
                    "pc": p.pc,
                    "executed": p.executed,
                    "mispredicted": p.mispredicted,
                    "misprediction_rate": p.misprediction_rate,
                    "separable": p.pc in built.separable_pcs,
                }
                for p in profiler.top_branches(args.top)
            ],
        })
    out.write("%s: %d instructions, MPKI %.2f, misprediction rate %.3f\n" % (
        built.name, profiler.total_instructions, profiler.mpki,
        profiler.misprediction_rate))
    rows = [
        ("pc %d%s" % (p.pc, " [separable]" if p.pc in built.separable_pcs else ""),
         p.executed, p.mispredicted, "%.3f" % p.misprediction_rate)
        for p in profiler.top_branches(args.top)
    ]
    out.write(format_table(
        ["branch", "executed", "mispredicted", "rate"], rows,
        title="top mispredicting branches",
    ) + "\n")
    return 0


def cmd_classify(args, out):
    study = run_classification_study(
        scale=args.scale, max_instructions=args.max_instructions or 100_000
    )
    if args.json:
        return _emit_json(out, {
            "kind": "repro.classify",
            "scale": args.scale,
            "rows": study.table_rows(),
            "suite_shares": study.suite_shares(),
            "targeted_share": study.targeted_share(),
            "class_shares": study.class_shares(),
            "separable_share": study.separable_share(),
        })
    out.write(format_table(
        ["suite", "application", "MPKI", "excluded"],
        [
            (r.suite, "%s(%s)" % (r.workload, r.input_name), "%.2f" % r.mpki,
             str(r.excluded))
            for r in study.table_rows()
        ],
        title="Table I — per-benchmark MPKI",
    ) + "\n")
    out.write("targeted share: %.2f\n" % study.targeted_share())
    for cls, share in sorted(study.class_shares().items()):
        out.write("  class %-22s %.2f\n" % (cls, share))
    out.write("separable (CFD-addressable): %.2f\n" % study.separable_share())
    return 0


def cmd_trace(args, out):
    built = _build(args)
    config = _make_config(args)
    if args.max_instructions is not None:
        config._oracle_horizon = args.max_instructions + 50_000
    pipeline = Pipeline(built.program, config)
    if args.max_instructions is not None:
        pipeline.retire_limit = args.max_instructions
    tracer = PipelineTracer(pipeline)
    events = EventTracer(capacity=args.events)
    occupancy = OccupancySampler()
    pipeline.attach_observer(events)
    pipeline.attach_observer(occupancy)
    tracer.run(max_cycles=args.cycles)

    slug = re.sub(r"[^A-Za-z0-9_.-]+", "_", built.name).strip("_")
    path = args.output or "trace_%s.%s" % (
        slug, "jsonl" if args.format == "jsonl" else "json"
    )
    if args.format == "jsonl":
        write_jsonl(path, events.iter_events())
    else:
        write_chrome_trace(path, tracer=events, occupancy=occupancy,
                           name=built.name)
    if args.render:
        out.write(tracer.render(start=args.render_start,
                                count=args.render_count) + "\n")
    out.write(
        "traced %d cycles of %s: %d events (%d dropped), "
        "%d lifecycles -> %s\n"
        % (
            len(tracer.records),
            built.name,
            sum(events.counts.values()),
            events.events.dropped,
            len(events.lifecycles),
            path,
        )
    )
    return 0


def cmd_disasm(args, out):
    built = _build(args)
    out.write(built.program.listing() + "\n")
    return 0


def cmd_bench_speed(args, out):
    from repro.perf.speed import (
        REFERENCE_CASES,
        merge_speed_section,
        run_sampled_benchmark,
    )

    cases = REFERENCE_CASES
    if args.cases:
        wanted = [name.strip() for name in args.cases.split(",") if name.strip()]
        known = {case.name: case for case in REFERENCE_CASES}
        unknown = [name for name in wanted if name not in known]
        if unknown:
            out.write("unknown case(s): %s (known: %s)\n" % (
                ", ".join(unknown), ", ".join(sorted(known))))
            return 2
        cases = [known[name] for name in wanted]

    def progress(case, result, done, total):
        if not args.json:
            out.write(
                "[%d/%d] %-22s %8.2f KIPS sampled  "
                "(err %+0.2f%% +/-%.2f%%, %d interval(s))\n" % (
                    done, total, case.name, result["kips"],
                    result["ipc_error_pct"], result["ipc_rel_ci95_pct"],
                    result["intervals"] or 0))

    sampled = run_sampled_benchmark(cases=cases, repeats=args.repeats,
                                    progress=progress)
    path = merge_speed_section(sampled, directory=args.artifact_dir)
    if args.json:
        _emit_json(out, sampled)
    else:
        out.write(
            "sampled geomean: %.2f KIPS (%.2fx vs full-detail %.2f), "
            "geomean |IPC error| %.2f%% (gate %.1f%%), "
            "geomean CI +/-%.2f%% -> %s\n" % (
                sampled["geomean_kips"],
                sampled["speedup_vs_reference"] or 0.0,
                sampled["reference_geomean_kips"],
                sampled["ipc_error_pct_geomean"],
                sampled["gates"]["error_gate_pct"],
                sampled["ipc_rel_ci95_pct_geomean"],
                "PASS" if sampled["gates_passed"] else "FAIL",
            ))
        out.write("artifact: %s\n" % path)
    if sampled["gates"].get("ci_wide"):
        wide = ", ".join(
            "%s +/-%.1f%%" % (name, case["ipc_rel_ci95_pct"])
            for name, case in sorted(sampled["cases"].items())
            if (case["ipc_rel_ci95_pct"] or 0.0)
            > sampled["gates"]["ci_warn_pct"]
        )
        print("repro: bench-speed: warning: wide sampled confidence "
              "intervals (geomean +/-%.2f%% > %.1f%%%s) -- the estimate "
              "may still be accurate, but the run cannot claim it from "
              "its own interval statistics; a smaller plan period (more "
              "intervals) tightens the bars"
              % (sampled["ipc_rel_ci95_pct_geomean"],
                 sampled["gates"]["ci_warn_pct"],
                 "; widest: " + wide if wide else ""),
              file=sys.stderr)
    if not sampled["gates_passed"]:
        print("repro: bench-speed: sampled gates failed (exit 6)",
              file=sys.stderr)
        return EXIT_PERF_REGRESSION
    return 0


def cmd_cache_prune(args, out):
    from repro.perf.tracestore import TraceStore

    cache = ResultCache(root=args.cache_dir)
    store = TraceStore(root=args.trace_dir)
    reports = (
        ("results", cache.prune(max_mb=args.max_mb)),
        ("traces", store.prune(max_mb=args.trace_max_mb)),
    )
    if args.json:
        _emit_json(out, {
            "kind": "repro.cache_prune",
            "stores": {name: report for name, report in reports},
        })
        return 0
    for name, report in reports:
        budget = report.get("max_bytes")
        out.write("%-8s %s: %d entr%s, %.1f MiB kept%s, removed %d "
                  "(%.1f MiB freed)\n" % (
                      name, report["root"], report["examined"],
                      "y" if report["examined"] == 1 else "ies",
                      report["kept_bytes"] / (1024.0 * 1024.0),
                      "" if budget is None
                      else " (budget %.1f MiB)"
                           % (budget / (1024.0 * 1024.0)),
                      report["removed"],
                      report["freed_bytes"] / (1024.0 * 1024.0)))
    return 0


def cmd_lint(args, out):
    from repro.lint import lint_program

    if args.workload:
        workload = get_workload(args.workload)
        variants = (args.variant,) if args.variant else workload.variants
        targets = [(workload, variant) for variant in variants]
    else:
        targets = [
            (workload, variant)
            for workload in all_workloads()
            for variant in workload.variants
        ]

    # Build with the gate off: the lint command reports findings itself
    # (exit code 5) instead of dying on the strict build gate (exit 3).
    saved_mode = os.environ.get("REPRO_LINT")
    os.environ["REPRO_LINT"] = "off"
    try:
        reports = []
        for workload, variant in targets:
            built = workload.build(variant, args.input, scale=args.scale,
                                   seed=args.seed)
            diagnostics = lint_program(built.program)
            reports.append((built, diagnostics))
    finally:
        if saved_mode is None:
            del os.environ["REPRO_LINT"]
        else:
            os.environ["REPRO_LINT"] = saved_mode

    total = sum(len(diagnostics) for _, diagnostics in reports)
    if args.json:
        payload = {
            "kind": "repro.lint",
            "programs": [
                {
                    "name": built.name,
                    "workload": built.workload,
                    "variant": built.variant,
                    "input": built.input_name,
                    "instructions": len(built.program.code),
                    "count": len(diagnostics),
                    "diagnostics": [d.to_dict() for d in diagnostics],
                }
                for built, diagnostics in reports
            ],
            "total_findings": total,
        }
        _emit_json(out, payload)
    else:
        for built, diagnostics in reports:
            if diagnostics:
                out.write("%s: %d finding%s\n" % (
                    built.name, len(diagnostics),
                    "" if len(diagnostics) == 1 else "s"))
                for diag in diagnostics:
                    out.write("  %s\n" % diag.render(built.program))
        out.write("linted %d program%s: %d finding%s\n" % (
            len(reports), "" if len(reports) == 1 else "s",
            total, "" if total == 1 else "s"))
    return EXIT_LINT_FINDINGS if total else 0


def cmd_lint_host(args, out):
    from repro.lint.host import lint_host, render_host_json, validate_trace_dir

    findings, files_analyzed, waivers = lint_host(root=args.root)

    trace_report = None
    if args.trace:
        trace_report = validate_trace_dir(args.trace)

    trace_violations = (
        len(trace_report["violations"]) if trace_report else 0)
    total = len(findings) + trace_violations
    if args.json:
        out.write(render_host_json(
            findings, files_analyzed=files_analyzed, waivers=waivers,
            trace=trace_report))
        out.write("\n")
    else:
        for finding in findings:
            out.write("%s\n" % finding.render())
        if trace_report:
            for violation in trace_report["violations"]:
                out.write("trace %s: %s %s: %s\n" % (
                    trace_report["directory"], violation["violation"],
                    violation.get("path"), violation.get("detail")))
            out.write("validated %d trace file%s (%d operation%s)\n" % (
                trace_report["files"],
                "" if trace_report["files"] == 1 else "s",
                trace_report["ops"],
                "" if trace_report["ops"] == 1 else "s"))
        out.write("analyzed %d file%s: %d finding%s\n" % (
            files_analyzed, "" if files_analyzed == 1 else "s",
            total, "" if total == 1 else "s"))
    return EXIT_HOST_LINT_FINDINGS if total else 0


def cmd_top(args, out):
    from repro.obs.telemetry import SweepAggregator, format_top

    aggregator = SweepAggregator(args.spool)
    while True:
        aggregator.poll()
        if args.json:
            _emit_json(out, aggregator.snapshot())
        else:
            if args.follow and getattr(out, "isatty", lambda: False)():
                out.write("\x1b[2J\x1b[H")  # clear screen, home cursor
            out.write(format_top(aggregator.snapshot(),
                                 max_points=args.max_points) + "\n")
        if not args.follow or aggregator.finished:
            return 0
        time.sleep(args.interval)


def cmd_tail(args, out):
    from repro.obs.telemetry import SweepAggregator, format_tail_event

    aggregator = SweepAggregator(args.spool)
    while True:
        for event in aggregator.poll():
            if args.json:
                out.write(json.dumps(event, sort_keys=False) + "\n")
            else:
                out.write(format_tail_event(event) + "\n")
        if not args.follow or aggregator.finished:
            return 0
        time.sleep(args.interval)


def cmd_metrics_export(args, out):
    from repro.obs.prom import render_snapshot, render_sweep, write_prom

    if os.path.isdir(args.source):
        from repro.obs.telemetry import SweepAggregator

        aggregator = SweepAggregator(args.source)
        aggregator.poll()
        text = render_sweep(aggregator.snapshot())
    else:
        try:
            with open(args.source) as fh:
                document = json.load(fh)
        except (OSError, ValueError) as exc:
            print("repro: metrics-export: cannot read %s: %s"
                  % (args.source, exc), file=sys.stderr)
            return EXIT_USAGE
        metrics = (
            document.get("metrics") if isinstance(document, dict) else None
        )
        if not isinstance(metrics, dict):
            # A bare flat metrics dict is also accepted.
            metrics = document if isinstance(document, dict) else None
        if not metrics:
            print("repro: metrics-export: %s holds no metrics (expected a "
                  "run manifest or a flat metrics dict)" % args.source,
                  file=sys.stderr)
            return EXIT_USAGE
        text = render_snapshot(metrics)
    if args.output:
        write_prom(args.output, text)
        out.write("wrote %s\n" % args.output)
    else:
        out.write(text)
    return 0


def cmd_trace_merge(args, out):
    from repro.obs.export import merge_chrome_trace_files, write_json

    names = None
    if args.names:
        names = [name.strip() for name in args.names.split(",")]
    try:
        merged = merge_chrome_trace_files(args.traces, names=names)
    except ValueError as exc:
        print("repro: trace-merge: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    write_json(args.output, merged)
    out.write("merged %d trace(s) -> %s (%d events)\n" % (
        len(args.traces), args.output, len(merged["traceEvents"])))
    return 0


def _spec_from_args(args):
    """A service job spec from the common workload flags (repro submit)."""
    spec = {
        "workload": args.workload,
        "variant": args.variant,
        "input": args.input,
        "scale": args.scale,
        "seed": args.seed,
        "max_instructions": args.max_instructions,
        "config": args.config,
    }
    if getattr(args, "rob", None):
        spec["rob"] = args.rob
    if getattr(args, "predictor", None):
        spec["predictor"] = args.predictor
    return spec


def cmd_serve(args, out):
    from repro.serve.daemon import ServiceConfig, ServiceDaemon

    policy = SupervisionPolicy(
        timeout=args.timeout,
        retries=args.retries,
        backoff=args.backoff,
        max_pool_respawns=args.max_pool_respawns,
    )
    config = ServiceConfig(
        jobs=args.jobs,
        batch=args.batch,
        lease_seconds=args.lease_seconds,
        poll_interval=args.poll_interval,
        max_depth=args.max_depth,
        rate=args.rate,
        burst=args.burst,
        max_lease_attempts=args.max_lease_attempts,
        once=args.once,
        no_cache=args.no_cache,
        policy=policy,
    )
    daemon = ServiceDaemon(args.root, config)
    api_server = None
    if args.port is not None:
        from repro.serve.api import ServiceAPIServer

        api_server = ServiceAPIServer(daemon, host=args.host, port=args.port)
        out.write("repro serve: http://%s (root %s)\n"
                  % (api_server.address, args.root))
        out.flush()
    return daemon.run_forever(api_server=api_server)


def cmd_submit(args, out):
    spec = _spec_from_args(args)
    if args.url:
        import urllib.error
        import urllib.request

        url = args.url.rstrip("/")
        if "://" not in url:
            url = "http://" + url
        body = json.dumps(dict(spec, tenant=args.tenant)).encode()
        request = urllib.request.Request(
            url + "/jobs", data=body,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=30.0) as response:
                info = json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            detail = exc.read().decode("utf-8", "replace").strip()
            print("repro: submit: HTTP %d: %s" % (exc.code, detail),
                  file=sys.stderr)
            return EXIT_SIMULATION_ERROR
        except (urllib.error.URLError, OSError) as exc:
            print("repro: submit: %s" % exc, file=sys.stderr)
            return EXIT_SIMULATION_ERROR
        job_id = info["job_id"]
        if not args.wait:
            if args.json:
                _emit_json(out, info)
            else:
                out.write("%s %s\n" % (job_id, info["state"]))
            return 0
        from repro.serve.queue import LIVE_STATES

        deadline = time.monotonic() + args.timeout
        info = None
        while time.monotonic() < deadline:
            try:
                with urllib.request.urlopen(
                    "%s/jobs/%s" % (url, job_id), timeout=30.0
                ) as response:
                    info = json.loads(response.read().decode("utf-8"))
            except (urllib.error.URLError, OSError) as exc:
                print("repro: submit: %s" % exc, file=sys.stderr)
                return EXIT_SIMULATION_ERROR
            if info["state"] not in LIVE_STATES:
                break
            time.sleep(0.2)
        if info is None or info["state"] in LIVE_STATES:
            print("repro: submit: job did not settle within %.0fs"
                  % args.timeout, file=sys.stderr)
            return EXIT_SIMULATION_ERROR
        if args.json:
            _emit_json(out, info)
        else:
            out.write("%s %s\n" % (job_id, info["state"]))
        if info["state"] == "done":
            return 0
        print("repro: submit: job %s: %s"
              % (info["state"], info.get("error") or ""), file=sys.stderr)
        return EXIT_SIMULATION_ERROR
    else:
        from repro.serve.daemon import service_paths, wait_for_job
        from repro.serve.queue import JobQueue

        if not args.queue:
            print("repro: submit needs --queue ROOT or --url URL",
                  file=sys.stderr)
            return EXIT_USAGE
        queue = JobQueue(service_paths(args.queue)["wal"])
        try:
            job, created, _shed = queue.submit(spec, tenant=args.tenant)
        except ValueError as exc:
            print("repro: submit: %s" % exc, file=sys.stderr)
            return EXIT_USAGE
        if not args.wait:
            if args.json:
                _emit_json(out, dict(job.to_dict(), created=created))
            else:
                out.write("%s %s%s\n" % (job.job_id, job.state,
                                         "" if created else " (dedup)"))
            return 0
        job = wait_for_job(queue, job.job_id, timeout=args.timeout)
    if job is None or job.live:
        print("repro: submit: job did not settle within %.0fs"
              % args.timeout, file=sys.stderr)
        return EXIT_SIMULATION_ERROR
    if args.json:
        _emit_json(out, job.to_dict(with_result=True))
    else:
        out.write("%s %s\n" % (job.job_id, job.state))
    if job.state == "done":
        return 0
    print("repro: submit: job %s: %s" % (job.state, job.error or ""),
          file=sys.stderr)
    return EXIT_SIMULATION_ERROR


def cmd_jobs(args, out):
    from repro.serve.daemon import service_paths
    from repro.serve.queue import JobQueue

    queue = JobQueue(service_paths(args.root)["wal"])
    if args.job_id:
        job = queue.get(args.job_id)
        if job is None:
            print("repro: jobs: no such job %s" % args.job_id,
                  file=sys.stderr)
            return EXIT_USAGE
        if args.json:
            _emit_json(out, job.to_dict(with_result=True))
        else:
            info = job.to_dict()
            for field in ("job_id", "state", "tenant", "attempts",
                          "submits", "error"):
                out.write("%-12s %s\n" % (field, info[field]))
        return 0
    if args.json:
        _emit_json(out, {"counts": queue.counts(),
                         "jobs": queue.list_jobs()})
        return 0
    counts = queue.counts()
    out.write("depth %d  (submitted %d, leased %d, done %d, failed %d, "
              "dead %d)\n" % (counts["depth"], counts["submitted"],
                              counts["leased"], counts["done"],
                              counts["failed"], counts["dead"]))
    for info in queue.list_jobs():
        out.write("%s  %-9s %-10s attempts=%d submits=%d\n" % (
            info["job_id"][:12], info["state"], info["tenant"],
            info["attempts"], info["submits"]))
    return 0


def cmd_drain(args, out):
    from repro.serve.daemon import drain

    report = drain(args.root, timeout=args.timeout)
    if args.json:
        _emit_json(out, report)
    else:
        if not report["found"]:
            out.write("no live daemon in %s\n" % args.root)
        elif report["exited"]:
            out.write("daemon %d drained\n" % report["pid"])
        else:
            out.write("daemon %d still running after %.0fs\n"
                      % (report["pid"], args.timeout))
        counts = report["queue"]
        out.write("queue: depth %d, leased %d\n"
                  % (counts["depth"], counts["leased"]))
    if report["clean"]:
        return 0
    print("repro: drain: daemon did not stop cleanly (leased=%d)"
          % report["queue"]["leased"], file=sys.stderr)
    return EXIT_SIMULATION_ERROR


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro", description="Control-Flow Decoupling reproduction"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, variant=True, json_flag=False):
        p.add_argument("workload")
        if variant:
            p.add_argument("--variant", default="base")
        p.add_argument("--input", default=None)
        p.add_argument("--scale", type=float, default=0.25)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--max-instructions", type=int, default=None)
        p.add_argument("--config", choices=sorted(_CONFIGS), default="baseline")
        p.add_argument("--predictor", default=None)
        p.add_argument("--rob", type=int, default=None)
        p.add_argument(
            "--deadlock-cycles", type=int, default=None,
            help="cycles without a retirement before the pipeline watchdog "
                 "aborts with an invariant violation (default 100000)")
        if json_flag:
            p.add_argument("--json", action="store_true",
                           help="emit machine-readable JSON")

    def perf_flags(p, jobs=True, supervise=False):
        if jobs:
            p.add_argument(
                "--jobs", type=int, default=1,
                help="worker processes for independent simulation points "
                     "(compare runs base and variant concurrently with "
                     "--jobs 2)")
        p.add_argument(
            "--no-cache", action="store_true",
            help="always simulate fresh; skip the persistent result cache "
                 "(~/.cache/repro, override with REPRO_CACHE_DIR)")
        if supervise:
            p.add_argument(
                "--timeout", type=float, default=None,
                help="per-point wall-clock timeout in seconds; a point "
                     "exceeding it is killed and retried (needs --jobs >= 2; "
                     "see docs/ROBUSTNESS.md)")
            p.add_argument(
                "--retries", type=int, default=1,
                help="retries per point after a timeout, worker death or "
                     "error (default 1)")
            p.add_argument(
                "--journal", default=None,
                help="JSONL checkpoint journal recording each completed "
                     "point; pair with --resume to continue an interrupted "
                     "sweep")
            p.add_argument(
                "--resume", action="store_true",
                help="serve points already recorded in --journal instead of "
                     "re-simulating them")
            p.add_argument(
                "--telemetry", default=None, metavar="DIR",
                help="fleet-telemetry spool directory (default "
                     "$REPRO_TELEMETRY_DIR; disabled when unset) — watch "
                     "live with 'repro top DIR' / 'repro tail DIR --follow'")

    sub.add_parser("list", help="list the workload registry")
    run_parser = sub.add_parser("run", help="simulate one binary")
    common(run_parser, json_flag=True)
    perf_flags(run_parser, jobs=False)
    run_parser.add_argument(
        "--check", action="store_true",
        help="attach the independent invariant checker (fresh simulation, "
             "bypasses the cache; see docs/ROBUSTNESS.md)")
    run_parser.add_argument(
        "--sample", nargs="?", const="default", default=None, metavar="SPEC",
        help="sampled simulation: detailed windows + trace-replay warm "
             "gaps ('default', or 'interval=N,warmup=N,period=N,head=N,"
             "tail=N'; see docs/PERFORMANCE.md) — the summary reports the "
             "measured fraction and IPC confidence interval")
    compare_parser = sub.add_parser("compare", help="base vs variant")
    common(compare_parser, json_flag=True)
    perf_flags(compare_parser, supervise=True)
    profile_parser = sub.add_parser("profile", help="branch profile")
    common(profile_parser, json_flag=True)
    profile_parser.add_argument("--top", type=int, default=10)
    classify_parser = sub.add_parser("classify", help="Fig 6 study")
    classify_parser.add_argument("--scale", type=float, default=0.125)
    classify_parser.add_argument("--max-instructions", type=int, default=None)
    classify_parser.add_argument("--json", action="store_true",
                                 help="emit machine-readable JSON")
    trace_parser = sub.add_parser(
        "trace", help="per-cycle trace to Chrome/Perfetto JSON or JSONL"
    )
    common(trace_parser)
    trace_parser.add_argument("--cycles", type=int, default=10_000,
                              help="max cycles to trace")
    trace_parser.add_argument("--output", default=None,
                              help="output path (default trace_<name>.json)")
    trace_parser.add_argument("--format", choices=("chrome", "jsonl"),
                              default="chrome")
    trace_parser.add_argument("--events", type=int, default=65536,
                              help="event ring-buffer capacity")
    trace_parser.add_argument("--render", action="store_true",
                              help="also print the per-cycle timeline")
    trace_parser.add_argument("--render-start", type=int, default=0)
    trace_parser.add_argument("--render-count", type=int, default=50)
    common(sub.add_parser("disasm", help="disassemble a built binary"))
    speed_parser = sub.add_parser(
        "bench-speed",
        help="sampled-engine benchmark: sampled KIPS and IPC error vs full "
             "detail; exit 6 if the 3x speed or 2%% error gate fails",
    )
    speed_parser.add_argument(
        "--repeats", type=int, default=2,
        help="sampled timing repetitions per case; the best is kept "
             "(default 2)")
    speed_parser.add_argument(
        "--cases", default=None,
        help="comma-separated subset of reference case names")
    speed_parser.add_argument(
        "--artifact-dir", default=None,
        help="merge the 'sampled' section into BENCH_speed.json here "
             "(default $REPRO_BENCH_ARTIFACT_DIR or .)")
    speed_parser.add_argument("--json", action="store_true",
                              help="emit the 'sampled' section as JSON")
    prune_parser = sub.add_parser(
        "cache-prune",
        help="shrink the persistent result cache and warm-trace store "
             "(LRU by mtime) to their byte budgets",
    )
    prune_parser.add_argument(
        "--max-mb", type=float, default=None,
        help="result-cache budget in MiB (default $REPRO_CACHE_MAX_MB; "
             "omit both to just report sizes)")
    prune_parser.add_argument(
        "--trace-max-mb", type=float, default=None,
        help="trace-store budget in MiB (default $REPRO_TRACE_MAX_MB)")
    prune_parser.add_argument(
        "--cache-dir", default=None,
        help="result-cache root (default ~/.cache/repro or "
             "$REPRO_CACHE_DIR)")
    prune_parser.add_argument(
        "--trace-dir", default=None,
        help="trace-store root (default <cache>/traces or "
             "$REPRO_TRACE_DIR)")
    prune_parser.add_argument("--json", action="store_true",
                              help="emit the prune reports as JSON")
    top_parser = sub.add_parser(
        "top", help="live progress view of a telemetry-enabled sweep"
    )
    top_parser.add_argument(
        "spool", help="telemetry spool directory (the sweep's --telemetry "
                      "DIR / $REPRO_TELEMETRY_DIR)")
    top_parser.add_argument("--follow", action="store_true",
                            help="refresh until the sweep finishes")
    top_parser.add_argument("--interval", type=float, default=1.0,
                            help="refresh interval in seconds (default 1)")
    top_parser.add_argument("--max-points", type=int, default=None,
                            help="show at most N point rows")
    top_parser.add_argument("--json", action="store_true",
                            help="emit the aggregator snapshot as JSON")
    tail_parser = sub.add_parser(
        "tail", help="stream a sweep's telemetry spool events"
    )
    tail_parser.add_argument("spool", help="telemetry spool directory")
    tail_parser.add_argument("--follow", action="store_true",
                             help="keep polling until the sweep finishes")
    tail_parser.add_argument("--interval", type=float, default=0.5,
                             help="poll interval in seconds (default 0.5)")
    tail_parser.add_argument("--json", action="store_true",
                             help="emit raw JSONL events")
    export_parser = sub.add_parser(
        "metrics-export",
        help="Prometheus text format from a spool dir or run manifest",
    )
    export_parser.add_argument(
        "source",
        help="telemetry spool directory (sweep metrics) or a run-manifest "
             "/ metrics JSON file (per-simulation metrics)")
    export_parser.add_argument(
        "-o", "--output", default=None,
        help="write to this file (atomic replace) instead of stdout")
    merge_parser = sub.add_parser(
        "trace-merge",
        help="stitch Chrome trace files into one multi-track Perfetto trace",
    )
    merge_parser.add_argument("traces", nargs="+",
                              help="Chrome trace-event JSON files")
    merge_parser.add_argument(
        "-o", "--output", default="trace_merged.json",
        help="merged trace path (default trace_merged.json)")
    merge_parser.add_argument(
        "--names", default=None,
        help="comma-separated track names, one per input trace (default: "
             "each trace's recorded program name)")
    lint_parser = sub.add_parser(
        "lint",
        help="statically verify built binaries (CFG, dataflow, queue "
             "discipline); exit code 5 on findings",
    )
    lint_parser.add_argument(
        "workload", nargs="?", default=None,
        help="workload to lint (omit to lint the whole registry)")
    lint_parser.add_argument(
        "--variant", default=None,
        help="single variant to lint (default: every variant)")
    lint_parser.add_argument("--input", default=None)
    lint_parser.add_argument("--scale", type=float, default=0.25)
    lint_parser.add_argument("--seed", type=int, default=1)
    lint_parser.add_argument("--json", action="store_true",
                             help="emit machine-readable JSON")
    lint_host_parser = sub.add_parser(
        "lint-host",
        help="statically verify the repo's own service stack (lockset, "
             "atomic-write, torn-tail and determinism rules) and audit "
             "FS-sanitizer traces; exit code 7 on findings",
    )
    lint_host_parser.add_argument(
        "--root", default=None,
        help="source tree to analyze (default: the installed repro "
             "package)")
    lint_host_parser.add_argument(
        "--trace", default=None, metavar="DIR",
        help="also validate fsops-*.jsonl FS-sanitizer traces from a "
             "REPRO_FS_SANITIZE run (see docs/STATIC_ANALYSIS.md)")
    lint_host_parser.add_argument("--json", action="store_true",
                                  help="emit machine-readable JSON")
    serve_parser = sub.add_parser(
        "serve",
        help="run the crash-safe simulation service daemon "
             "(durable WAL queue + supervised worker fleet; "
             "see docs/SERVICE.md)",
    )
    serve_parser.add_argument(
        "root", help="service directory (WAL, telemetry spool, pidfile)")
    serve_parser.add_argument(
        "--port", type=int, default=None, metavar="PORT",
        help="serve the HTTP JSON API on this port (0 = ephemeral, "
             "address recorded in <root>/http.addr; omit for queue-only "
             "mode)")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--jobs", type=int, default=2,
        help="worker processes in the daemon's pool, shared by every "
             "round; 1 runs jobs inline (default 2)")
    serve_parser.add_argument(
        "--batch", type=int, default=4,
        help="lease window: jobs held leased at once, running plus "
             "ready; a round leases more as jobs settle (default 4)")
    serve_parser.add_argument(
        "--lease-seconds", type=float, default=300.0,
        help="lease duration; a daemon dead longer than this loses its "
             "claims (default 300)")
    serve_parser.add_argument(
        "--poll-interval", type=float, default=0.2,
        help="idle poll interval in seconds (default 0.2)")
    serve_parser.add_argument(
        "--max-depth", type=int, default=None,
        help="live jobs beyond which new submits are shed with an "
             "explicit reject (default: unbounded)")
    serve_parser.add_argument(
        "--rate", type=float, default=None,
        help="per-tenant token-bucket rate in jobs/second (default: no "
             "rate limit)")
    serve_parser.add_argument(
        "--burst", type=int, default=4,
        help="per-tenant token-bucket capacity (default 4)")
    serve_parser.add_argument(
        "--max-lease-attempts", type=int, default=3,
        help="lease expiries tolerated per job before it goes dead "
             "(default 3)")
    serve_parser.add_argument(
        "--timeout", type=float, default=None,
        help="per-job wall-clock timeout in seconds (supervision)")
    serve_parser.add_argument(
        "--retries", type=int, default=1,
        help="per-job retries after a timeout/death/error (default 1)")
    serve_parser.add_argument(
        "--backoff", type=float, default=0.25,
        help="first retry delay in seconds (default 0.25)")
    serve_parser.add_argument(
        "--max-pool-respawns", type=int, default=3,
        help="pool deaths tolerated before degrading to inline runs")
    serve_parser.add_argument(
        "--once", action="store_true",
        help="exit 0 once the queue is empty (batch mode / CI)")
    serve_parser.add_argument(
        "--no-cache", action="store_true",
        help="skip the persistent result cache")
    submit_parser = sub.add_parser(
        "submit", help="submit one job to a simulation service"
    )
    common(submit_parser, json_flag=True)
    submit_parser.add_argument(
        "--queue", default=None, metavar="ROOT",
        help="submit directly into this service directory's WAL (works "
             "with the daemon live or down)")
    submit_parser.add_argument(
        "--url", default=None, metavar="URL",
        help="submit via the HTTP API (host:port or full URL)")
    submit_parser.add_argument(
        "--tenant", default="default",
        help="tenant name for fair scheduling / rate limiting")
    submit_parser.add_argument(
        "--wait", action="store_true",
        help="block until the job settles; exit 0 done, 3 failed/dead")
    submit_parser.add_argument(
        "--timeout", type=float, default=300.0,
        help="--wait deadline in seconds (default 300)")
    jobs_parser = sub.add_parser(
        "jobs", help="inspect a simulation service's job queue"
    )
    jobs_parser.add_argument("root", help="service directory")
    jobs_parser.add_argument("job_id", nargs="?", default=None,
                             help="show one job (result included with "
                                  "--json)")
    jobs_parser.add_argument("--json", action="store_true",
                             help="emit machine-readable JSON")
    drain_parser = sub.add_parser(
        "drain",
        help="gracefully stop a service daemon (SIGTERM, wait, verify "
             "zero leased jobs); exit 0 on a clean drain",
    )
    drain_parser.add_argument("root", help="service directory")
    drain_parser.add_argument(
        "--timeout", type=float, default=60.0,
        help="seconds to wait for the daemon to exit (default 60)")
    drain_parser.add_argument("--json", action="store_true",
                              help="emit the drain report as JSON")
    return parser


_COMMANDS = {
    "list": cmd_list,
    "run": cmd_run,
    "compare": cmd_compare,
    "profile": cmd_profile,
    "classify": cmd_classify,
    "trace": cmd_trace,
    "disasm": cmd_disasm,
    "bench-speed": cmd_bench_speed,
    "cache-prune": cmd_cache_prune,
    "lint": cmd_lint,
    "lint-host": cmd_lint_host,
    "top": cmd_top,
    "tail": cmd_tail,
    "metrics-export": cmd_metrics_export,
    "trace-merge": cmd_trace_merge,
    "serve": cmd_serve,
    "submit": cmd_submit,
    "jobs": cmd_jobs,
    "drain": cmd_drain,
}


def main(argv=None, out=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out or sys.stdout)
    except SimulatorInvariantError as exc:
        first_line = str(exc).splitlines()[0] if str(exc) else str(exc)
        print("repro: invariant violation: %s" % first_line, file=sys.stderr)
        return EXIT_INVARIANT_VIOLATION
    except ReproError as exc:
        print("repro: error: %s" % exc, file=sys.stderr)
        return EXIT_SIMULATION_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
