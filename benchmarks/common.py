"""Shared infrastructure for the paper-reproduction benchmarks.

Every bench regenerates one of the paper's tables or figures: it runs the
relevant workload binaries on the cycle core, prints the same rows/series
the paper reports, and asserts the qualitative shape (who wins, rough
factors, crossovers).  Absolute numbers differ from the paper — our
substrate is a reduced-scale simulator — which DESIGN.md and
EXPERIMENTS.md discuss per experiment.

Scale control: ``REPRO_BENCH_SCALE`` multiplies workload sizes
(default 0.2; the paper-vs-measured records in EXPERIMENTS.md were made
at 0.2).

Caching: :func:`run` runs each point through
:func:`repro.perf.sweep.run_point`, the runner ``repro run`` and the
sweep workers use, against the persistent :class:`repro.perf.ResultCache`
(``~/.cache/repro``, override with ``REPRO_CACHE_DIR``).  Repeats within
a session (figures share most baselines) are disk hits, and re-running
a figure after an unrelated edit is incremental.  Set
``REPRO_BENCH_NO_CACHE=1`` to start from an empty cache in a temporary
directory that lives for the session.

Parallelism: before each (serial) table-building loop over registered
workloads, a figure calls :func:`prefetch` with the loop's full point
grid; with ``REPRO_BENCH_JOBS=N`` (N > 1) the uncached points fan out
over a process pool via :func:`repro.rel.run_supervised_sweep` and land
in the result cache, after which the loop is pure cache hits.  The
default is serial — results are byte-identical either way.

Supervision (see docs/ROBUSTNESS.md): ``REPRO_BENCH_TIMEOUT`` puts a
per-point wall-clock limit (seconds) on prefetched points,
``REPRO_BENCH_RETRIES`` bounds retries after a timeout/worker death
(default 1), and ``REPRO_BENCH_JOURNAL`` names a JSONL checkpoint
journal — when set, completed points are recorded there and an
interrupted bench resumes from it on the next run.

Telemetry (see docs/OBSERVABILITY.md "Fleet telemetry"): exporting
``REPRO_TELEMETRY_DIR=<dir>`` makes every prefetched sweep spool
heartbeat/progress/resource events there — watch a long figure converge
with ``python -m repro top <dir> --follow`` from another terminal.
Results are byte-identical with telemetry on or off.

Artifacts: every :func:`print_figure` call also writes the figure as a
versioned ``BENCH_<figure>.json`` document (headers + rows + run
parameters) into ``REPRO_BENCH_ARTIFACT_DIR`` (default: current
directory), so CI and trend tooling can diff bench output without
scraping tables.
"""

import json
import os
import re
import tempfile

from repro.analysis import compare_runs, format_table
from repro.obs.export import ARTIFACT_VERSION, jsonable
from repro.perf import ResultCache, SweepPoint, run_point
from repro.perf.sweep import probe_cache
from repro.rel import SupervisionPolicy, run_supervised_sweep
from repro.workloads import get_workload

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.2"))
SEED = int(os.environ.get("REPRO_BENCH_SEED", "1"))
#: Worker processes for :func:`prefetch` (1 = serial, same results).
JOBS = max(1, int(os.environ.get("REPRO_BENCH_JOBS", "1") or 1))
#: Prefetch supervision knobs (docs/ROBUSTNESS.md).
TIMEOUT = float(os.environ.get("REPRO_BENCH_TIMEOUT", "0") or 0) or None
RETRIES = max(0, int(os.environ.get("REPRO_BENCH_RETRIES", "1") or 1))
JOURNAL = os.environ.get("REPRO_BENCH_JOURNAL") or None

#: The paper's CFD(BQ) application list (Table III), as (workload, input).
CFD_BQ_APPS = [
    ("astar_r1", "BigLakes"),
    ("astar_r1", "Rivers"),
    ("astar_r2", "BigLakes"),
    ("soplex", "ref"),
    ("soplex", "pds"),
    ("mcf", "ref"),
    ("eclat", "ref"),
    ("gromacs", "ref"),
    ("jpeg_compr", "ref"),
    ("namd", "ref"),
    ("hmmer", "ref"),
    ("tiff_2bw", "2bw"),
    ("tiff_median", "median"),
]

#: Apps with a cfd_plus (VQ) variant.
CFD_PLUS_APPS = [
    ("soplex", "ref"),
    ("soplex", "pds"),
    ("mcf", "ref"),
    ("eclat", "ref"),
    ("gromacs", "ref"),
    ("jpeg_compr", "ref"),
    ("namd", "ref"),
]

#: DFD study apps (Fig 24: astar and soplex).
DFD_APPS = [
    ("astar_r1", "BigLakes"),
    ("astar_r1", "Rivers"),
    ("astar_r2", "BigLakes"),
    ("soplex", "ref"),
]

#: CFD(TQ) apps (Table IV / Figs 27-28).
TQ_APPS = [
    ("astar_tq", "BigLakes"),
    ("astar_tq", "Rivers"),
    ("bzip2", "chicken"),
    ("bzip2", "input.source"),
]

_BUILD_CACHE = {}

#: The session's result cache: the persistent one, or with
#: ``REPRO_BENCH_NO_CACHE`` an empty one that is deleted at exit.
_SESSION_DIR = (
    tempfile.TemporaryDirectory(prefix="repro-bench-cache-")
    if os.environ.get("REPRO_BENCH_NO_CACHE") else None
)
_CACHE = ResultCache(root=_SESSION_DIR.name if _SESSION_DIR else None)


def build(workload_name, variant, input_name=None, scale=None):
    """Cached workload build."""
    scale = SCALE if scale is None else scale
    key = (workload_name, variant, input_name, scale, SEED)
    if key not in _BUILD_CACHE:
        workload = get_workload(workload_name)
        _BUILD_CACHE[key] = workload.build(variant, input_name, scale, SEED)
    return _BUILD_CACHE[key]


def run(workload_name, variant, input_name=None, config=None, scale=None,
        max_instructions=None):
    """Cached simulation of one workload binary on one core config.

    A hit in the session's result cache, or a fresh simulation stored
    there; either way ``stats.to_dict()`` is byte-identical.
    """
    scale = SCALE if scale is None else scale
    built = build(workload_name, variant, input_name, scale)
    point = SweepPoint(
        workload=workload_name,
        variant=variant,
        input_name=input_name,
        config=config,
        scale=scale,
        seed=SEED,
        max_instructions=max_instructions,
    )
    return built, run_point(point, cache=_CACHE, built=built).result


def _cached(point):
    """Whether the session's cache holds *point*, probed with the
    session's build.  A build or probe that raises counts as a miss, so
    the supervised sweep meets the error under its retry policy."""
    try:
        built = build(point.workload, point.variant, point.input_name,
                      point.scale)
        return probe_cache(_CACHE, point, built)[1] is not None
    except Exception:
        return False


def prefetch(apps, variants=("base",), config=None, scale=None,
             max_instructions=None, jobs=None):
    """Warm the result cache for a figure's {app x variant x config} grid.

    *apps* is a list of ``(workload, input_name)`` pairs (the module-level
    app lists above); *variants* the variant names each app runs under;
    *config* one core config (``None``: the default) or a list of them,
    under each of which every app and variant runs.  The cache is
    probed here, with the session's own builds; only the uncached
    points fan out over :func:`repro.rel.run_supervised_sweep`
    with *jobs* workers (default: ``REPRO_BENCH_JOBS``) under the
    ``REPRO_BENCH_TIMEOUT``/``RETRIES``/``JOURNAL`` supervision policy,
    after which the figure's serial ``run()``/``compare()`` loop is pure
    cache hits.  Points that fail are left for the serial path to
    re-raise with full context, and so are points resumed from the
    journal whose entries the cache no longer holds.  Returns the
    uncached points' outcomes.
    """
    jobs = JOBS if jobs is None else max(1, int(jobs))
    scale = SCALE if scale is None else scale
    configs = config if isinstance(config, list) else [config]
    points = [
        SweepPoint(
            workload=workload,
            variant=variant,
            input_name=input_name,
            config=config,
            scale=scale,
            seed=SEED,
            max_instructions=max_instructions,
        )
        for config in configs
        for workload, input_name in apps
        for variant in variants
    ]
    misses = [point for point in points if not _cached(point)]
    if not misses:
        return []
    policy = SupervisionPolicy(
        timeout=TIMEOUT,
        retries=RETRIES,
        journal_path=JOURNAL,
        resume=JOURNAL is not None,
    )
    return run_supervised_sweep(misses, jobs=jobs, cache=_CACHE, policy=policy)


def compare(workload_name, variant, input_name=None, config=None, scale=None):
    """Base-vs-variant comparison (same work, same config)."""
    _, base_result = run(workload_name, "base", input_name, config, scale)
    _, var_result = run(workload_name, variant, input_name, config, scale)
    label = "%s(%s)" % (workload_name, input_name or "")
    return compare_runs(label, variant, base_result, var_result), base_result, var_result


def _figure_slug(title):
    """A filesystem-safe slug derived from a figure title."""
    slug = re.sub(r"[^a-z0-9]+", "_", title.lower()).strip("_")
    return slug or "figure"


def emit_artifact(figure, headers, rows, title=None, notes=None):
    """Write one ``BENCH_<figure>.json`` artifact; returns its path.

    The document is versioned (``artifact_version``) and carries the run
    parameters (scale/seed) so a stored artifact is self-describing.
    """
    directory = os.environ.get("REPRO_BENCH_ARTIFACT_DIR", ".")
    path = os.path.join(directory, "BENCH_%s.json" % figure)
    payload = {
        "artifact_version": ARTIFACT_VERSION,
        "kind": "repro.bench",
        "figure": figure,
        "title": title,
        "scale": SCALE,
        "seed": SEED,
        "headers": list(headers),
        "rows": [jsonable(list(row)) for row in rows],
        "notes": notes,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return path


def print_figure(title, headers, rows, notes=None, figure=None):
    """Emit one paper-style table to stdout (visible with pytest -s; the
    bench harness also captures it into bench_output.txt) and write the
    matching ``BENCH_<figure>.json`` artifact (slug derived from *title*
    unless *figure* is given)."""
    print()
    print("=" * 78)
    print(format_table(headers, rows, title=title))
    if notes:
        print(notes)
    print("=" * 78)
    emit_artifact(figure or _figure_slug(title), headers, rows,
                  title=title, notes=notes)


def fmt(value, digits=2):
    if isinstance(value, float):
        return ("%%.%df" % digits) % value
    return str(value)
