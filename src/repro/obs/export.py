"""Exporters: JSONL events, Chrome trace-event JSON, and the run manifest.

Three machine-readable artifact formats (schemas in
``docs/OBSERVABILITY.md``):

JSONL event dump
    One :class:`~repro.obs.events.TraceEvent` per line, oldest first.

Chrome trace-event / Perfetto JSON
    The ``{"traceEvents": [...]}`` container format.  Instruction
    lifecycles become complete (``"ph": "X"``) duration events — one lane
    per ROB-slot-like track so overlapping instructions stack — and
    occupancy samples become counter (``"ph": "C"``) tracks.  Load the
    file in https://ui.perfetto.dev or ``chrome://tracing``.  Cycles are
    reported as microseconds (1 cycle = 1us) because the format requires
    a time unit.

Run manifest
    A versioned JSON document binding together the workload identity,
    the full core configuration, the complete metrics snapshot and the
    energy report — the diffable, trendable record of one simulation.
"""

import dataclasses
import enum
import json

#: Version of the ``repro.run`` manifest schema.
MANIFEST_VERSION = 1

#: Version of the bench artifact schema (``BENCH_*.json``).
ARTIFACT_VERSION = 1


def jsonable(value):
    """Recursively convert *value* into JSON-safe plain data."""
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, dict):
        return {_key(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(jsonable(v) for v in value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return str(value)


def _key(key):
    if isinstance(key, enum.Enum):
        return key.name
    if isinstance(key, (str, int, float, bool)):
        return key
    return str(key)


def write_json(path, payload):
    """Write *payload* as indented JSON; returns *path*."""
    with open(path, "w") as fh:
        json.dump(jsonable(payload), fh, indent=2, sort_keys=False)
        fh.write("\n")
    return path


# ---------------------------------------------------------------- JSONL


def events_to_jsonl(events):
    """Yield one compact JSON line per :class:`TraceEvent`."""
    for event in events:
        record = {
            "cycle": event.cycle,
            "kind": event.kind,
            "seq": event.seq,
            "pc": event.pc,
            "op": event.op,
        }
        if event.info:
            record["info"] = jsonable(event.info)
        yield json.dumps(record, sort_keys=False)


def write_jsonl(path, events):
    """Write an event iterable as JSON-lines; returns *path*."""
    with open(path, "w") as fh:
        for line in events_to_jsonl(events):
            fh.write(line)
            fh.write("\n")
    return path


# --------------------------------------------------- Chrome trace events

#: Lanes used to spread overlapping instruction lifecycles across tids.
_TRACE_LANES = 16


def chrome_trace(tracer=None, occupancy=None, name="repro", lanes=_TRACE_LANES):
    """Build a Chrome trace-event document (Perfetto-loadable dict).

    *tracer* is an :class:`~repro.obs.events.EventTracer` (instruction
    lifecycles -> "X" duration events, recoveries -> "i" instant events);
    *occupancy* a :class:`~repro.obs.events.CycleRecorder` (its
    occupancy columns become counter tracks).  Either may be ``None``.
    """
    events = [
        {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
         "args": {"name": "%s occupancy" % name}},
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
         "args": {"name": "%s instructions" % name}},
        {"name": "thread_name", "ph": "M", "pid": 0, "tid": 0,
         "args": {"name": "structures"}},
    ]
    # Name every instruction lane so merged multi-program traces show
    # "<program> instructions / lane N" instead of bare pid/tid numbers.
    for lane in range(lanes):
        events.append({
            "name": "thread_name", "ph": "M", "pid": 1, "tid": lane,
            "args": {"name": "lane %d" % lane},
        })
    dropped = {}
    if tracer is not None:
        dropped["events"] = tracer.events.dropped
        dropped["lifecycles"] = tracer.lifecycles.dropped
        for lifecycle in tracer.iter_lifecycles():
            start = lifecycle.fetch if lifecycle.fetch is not None else lifecycle.end
            end = lifecycle.end
            if start is None or end is None:
                continue
            events.append({
                "name": "%s@%d" % (lifecycle.op, lifecycle.pc),
                "cat": "instruction",
                "ph": "X",
                "ts": start,
                "dur": max(1, end - start),
                "pid": 1,
                "tid": lifecycle.seq % lanes,
                "args": lifecycle.to_dict(),
            })
        for event in tracer.iter_events():
            if event.kind != "recovery":
                continue
            events.append({
                "name": "recovery:%s" % (event.info or {}).get("repair", "?"),
                "cat": "recovery",
                "ph": "i",
                "s": "g",
                "ts": event.cycle,
                "pid": 1,
                "tid": event.seq % lanes,
                "args": {"pc": event.pc, "seq": event.seq, "op": event.op},
            })
    if occupancy is not None:
        dropped["occupancy"] = occupancy.records.dropped
        for record in occupancy.records:
            events.append({
                "name": "occupancy",
                "ph": "C",
                "ts": record.cycle,
                "pid": 0,
                "tid": 0,
                "args": {
                    "rob": record.rob,
                    "iq": record.iq,
                    "bq": record.bq,
                    "tq": record.tq,
                    "mshr": record.mshr,
                },
            })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs",
            "program": name,
            "time_unit": "1us = 1 simulated cycle",
            "dropped": dropped,
        },
    }


def write_chrome_trace(path, tracer=None, occupancy=None, name="repro"):
    """Build and write a Chrome trace-event file; returns *path*."""
    return write_json(path, chrome_trace(tracer, occupancy, name))


#: pid stride separating merged source traces; comfortably above the two
#: pids (0, 1) a single-run trace uses.
_MERGE_PID_STRIDE = 100


def merge_chrome_traces(documents, names=None):
    """Stitch several Chrome trace documents into one multi-track trace.

    Each input document (the dict :func:`chrome_trace` builds — e.g. one
    per sweep worker or per ``repro trace`` invocation) keeps its own
    timeline but is moved into a private pid range (source *i* gets pids
    ``i*100 + original``), so tracks never collide.  Per-source
    ``process_name`` metadata is rewritten to lead with the source name
    (*names[i]*, or the document's recorded program) — the Perfetto
    process rail then reads ``soplex(ref)/cfd instructions`` instead of
    a bare pid.  Returns the merged document.
    """
    merged = []
    sources = []
    dropped = {}
    for index, document in enumerate(documents):
        base = index * _MERGE_PID_STRIDE
        recorded = (document.get("otherData") or {}).get("program")
        label = None
        if names is not None and index < len(names):
            label = names[index]
        label = label or recorded or ("trace-%d" % index)
        sources.append(label)
        seen_process_meta = set()
        for event in document.get("traceEvents", []):
            event = dict(event)
            pid = event.get("pid", 0)
            event["pid"] = base + pid
            if event.get("ph") == "M" and event.get("name") == "process_name":
                seen_process_meta.add(event["pid"])
                args = dict(event.get("args") or {})
                track = args.get("name") or ""
                args["name"] = (
                    "%s / %s" % (label, track)
                    if track and not track.startswith(label) else
                    (track or label)
                )
                event["args"] = args
            merged.append(event)
        # A source with no process metadata still gets a named track.
        for pid in sorted({e.get("pid") for e in merged
                           if e.get("pid", 0) // _MERGE_PID_STRIDE == index
                           and e.get("pid") not in seen_process_meta}):
            merged.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": label},
            })
        source_dropped = (document.get("otherData") or {}).get("dropped")
        if source_dropped:
            dropped[label] = source_dropped
    return {
        "traceEvents": merged,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs",
            "merged_from": sources,
            "time_unit": "1us = 1 simulated cycle",
            "dropped": dropped,
        },
    }


def merge_chrome_trace_files(paths, names=None):
    """Load *paths* (Chrome trace JSON files) and merge them.

    Unreadable or non-trace files raise ``ValueError`` with the path in
    the message, so a CLI caller can report which input was bad.
    """
    documents = []
    for path in paths:
        try:
            with open(path) as fh:
                document = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ValueError(
                "cannot read trace %s: %s" % (path, exc)) from exc
        if not isinstance(document, dict) or "traceEvents" not in document:
            raise ValueError(
                "%s is not a Chrome trace-event document "
                "(no traceEvents key)" % path
            )
        documents.append(document)
    return merge_chrome_traces(documents, names=names)


# -------------------------------------------------------- run manifest


def config_to_dict(config):
    """A JSON-safe dict of every field of a :class:`CoreConfig`."""
    return jsonable(config)


def run_manifest(result, workload=None, run=None, metrics=None,
                 sampling=None, supervision=None):
    """The versioned machine-readable record of one simulation.

    *result* is a :class:`~repro.core.simulator.SimResult`; *workload* an
    optional identity dict ({"name", "variant", "input", "scale", "seed"});
    *run* optional invocation parameters ({"max_instructions", ...}).
    *supervision* records the supervision knobs the run executed under
    (:meth:`repro.rel.supervise.SupervisionPolicy.to_dict`) so a
    service-side rerun is reproducible from the manifest alone; ``None``
    (plain unsupervised runs) keeps the key but leaves it null.
    *sampling* overrides the sampled-run accounting section; by default
    it is taken from ``result.sampling`` (present on
    :class:`~repro.perf.sample.SampledSimResult` and rehydrated cache
    entries) and is ``None`` for full-detail runs.
    The metrics section is the result's flat metrics snapshot — every
    counter the core, memory system, predictors and CFD hardware report.
    Pass a pre-taken flat *metrics* dict instead when the result has no
    live pipeline (a rehydrated :class:`~repro.perf.cache.CachedSimResult`).
    """
    if metrics is None:
        metrics = result.metrics_snapshot()
    stats = result.stats
    manifest = {
        "manifest_version": MANIFEST_VERSION,
        "kind": "repro.run",
        "generator": "repro.obs",
        "paper": "Control-Flow Decoupling (Sheikh, Tuck, Rotenberg; MICRO 2012)",
        "program": result.program_name,
        "workload": jsonable(workload) if workload else None,
        "run": jsonable(run) if run else None,
        "sampling": jsonable(
            sampling if sampling is not None
            else getattr(result, "sampling", None)
        ),
        "supervision": jsonable(supervision) if supervision else None,
        "config": config_to_dict(result.config),
        "metrics": metrics,
        "stats": jsonable(stats.to_dict()),
        "derived": {
            "ipc": stats.ipc,
            "mpki": stats.mpki,
            "bq_miss_rate": stats.bq_miss_rate,
            "mispredict_level_fractions": jsonable(
                stats.mispredict_level_fractions()
            ),
        },
        "energy": {
            "total_nj": result.energy.total_nj,
            "dynamic_pj": result.energy.dynamic_pj,
            "static_pj": result.energy.static_pj,
            "breakdown_pj": jsonable(result.energy.breakdown_pj),
        },
        "top_mispredicting_branches": [
            {
                "pc": pc,
                "executed": branch.executed,
                "mispredicted": branch.mispredicted,
                "misprediction_rate": branch.misprediction_rate,
            }
            for pc, branch in stats.top_mispredicting_branches(10)
        ],
    }
    return manifest
