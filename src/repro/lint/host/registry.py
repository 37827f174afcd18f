"""Protocol-file registry for the host lint and the FS sanitizer.

The service stack's durability story rests on a small set of *path
classes* — the WAL, the sweep journal, cache entries, trace blobs,
telemetry spools, the pidfile — each with its own contract (append-only
vs atomically replaced, fsync'd vs best-effort, flock'd vs
single-writer).  This module is the single source of truth for those
classes, consumed twice:

* statically, by :mod:`repro.lint.host.analyzer`, which maps *source
  expressions* (``self.path`` in ``JobQueue``, ``self.path_for(...)`` in
  ``ResultCache``, ``self.paths["wal"]`` in the daemon...) to classes
  and checks every reachable read/write against the class contract;
* dynamically, by :mod:`repro.lint.host.sanitizer`, which classifies
  concrete *path strings* by pattern and checks the recorded operation
  stream against the same contracts.

Keep this module stdlib-only: the sanitizer installs at ``repro``
import time and must not drag the simulator in.
"""

import re
from dataclasses import dataclass, field


@dataclass(frozen=True)
class PathClass:
    """The contract of one protocol file family.

    ``append_only``
        Mutations are appends; readers must open binary and decode per
        record (a torn tail costs one record, never the file).
    ``atomic``
        The file is published whole via same-directory tmp +
        ``os.replace``; a truncating ``open(path, "w")`` is forbidden.
    ``durable``
        The contract claims crash durability: appends must fsync, and
        atomic publishes must fsync the temp file before the rename and
        the directory after it.
    ``locked``
        Mutations must happen inside an exclusive ``flock`` critical
        section.
    ``pattern``
        Regex over the concrete path (the sanitizer's classifier).
    """

    name: str
    pattern: str
    append_only: bool = False
    atomic: bool = False
    durable: bool = False
    locked: bool = False

    def matches(self, path):
        return re.search(self.pattern, path.replace("\\", "/")) is not None


#: Every protocol file family, derived from serve/queue.py,
#: perf/cache.py, perf/tracestore.py, rel/supervise.py,
#: obs/telemetry.py and serve/daemon.py.
PATH_CLASSES = {
    # The job queue's write-ahead log: fsync'd appends under flock.
    "wal": PathClass("wal", r"wal\.jsonl$", append_only=True,
                     durable=True, locked=True),
    # Sidecar flock files (".lock", ".write.lock"): infrastructure, no
    # content contract of their own.
    "lock": PathClass("lock", r"\.lock$"),
    # Sweep checkpoint journal: single-writer fsync'd appends.
    "journal": PathClass("journal", r"(^|/)[^/]*journal[^/]*\.jsonl$",
                         append_only=True, durable=True),
    # Result-cache entries: atomic tmp+rename under the write lock.
    "cache-entry": PathClass(
        "cache-entry", r"/v\d+/[0-9a-f]{2}/[0-9a-f]{16,}\.json$",
        atomic=True, durable=True, locked=True),
    # Warm-trace blobs: same discipline as cache entries.
    "trace-blob": PathClass(
        "trace-blob", r"/v\d+/[0-9a-f]{2}/[0-9a-f]{16,}\.rwt$",
        atomic=True, durable=True, locked=True),
    # Telemetry spools: single-writer per-pid appends, best-effort
    # durability (a lost tail costs telemetry, never state).
    "spool": PathClass(
        "spool", r"(^|/)(daemon|worker|sweep|parent)-\d+\.jsonl$",
        append_only=True),
    # Daemon runtime files: atomically replaced, never truncated in
    # place (readers poll them), durability not claimed.
    "pid": PathClass("pid", r"(^|/)daemon\.pid$", atomic=True),
    "addr": PathClass("addr", r"(^|/)http\.addr$", atomic=True),
    # Prometheus snapshot: atomic replace, best-effort durability.
    "prom": PathClass("prom", r"\.prom$", atomic=True),
}


def classify_path(path):
    """The :class:`PathClass` a concrete path belongs to, or ``None``.

    Lock sidecars win over their base class (``wal.jsonl.lock`` is a
    lock file, not a WAL), so the lock pattern is tried first.
    """
    if PATH_CLASSES["lock"].matches(path):
        return PATH_CLASSES["lock"]
    for cls in PATH_CLASSES.values():
        if cls.name != "lock" and cls.matches(path):
            return cls
    return None


@dataclass(frozen=True)
class ModuleSpec:
    """What the static analyzer knows about one registered module.

    The seed tables map *source expressions* to path-class names:

    ``attr_seeds``
        ``{(class_name, attribute): path_class}`` — ``self.<attribute>``
        inside methods of ``class_name`` is a protocol path.
    ``call_seeds``
        ``{(class_name, method): path_class}`` — a call of
        ``self.<method>(...)`` (or a bare function for ``class_name``
        ``""``) *returns* a protocol path.
    ``subscript_seeds``
        ``{base_name: {literal_key: path_class}}`` — ``X.<base_name>[k]``
        or ``<base_name>(...)[k]`` with a literal key is a protocol
        path (the daemon's ``self.paths["wal"]`` /
        ``service_paths(root)["pid"]`` idiom).
    ``param_seeds``
        ``{(function, parameter): path_class}`` — a module-level
        function whose parameter is documented to carry a protocol
        path (``merged_events(spool_dir)``).
    ``lock_ctx``
        Names whose call as a ``with`` item establishes the flock
        critical section (``self._lock()``, ``self._write_lock()``,
        ``flock_exclusive(...)``).
    ``waivers``
        ``{"Class.method": reason}`` — sites exempt from the lockset
        rule, each with a written justification (rendered in findings
        docs, audited in code review).
    """

    attr_seeds: dict = field(default_factory=dict)
    call_seeds: dict = field(default_factory=dict)
    subscript_seeds: dict = field(default_factory=dict)
    param_seeds: dict = field(default_factory=dict)
    lock_ctx: tuple = ("_lock", "_write_lock", "flock_exclusive")
    waivers: dict = field(default_factory=dict)
    determinism: bool = False


#: Registered modules, keyed by path suffix relative to ``src/repro``.
HOST_MODULES = {
    "serve/queue.py": ModuleSpec(
        attr_seeds={("JobQueue", "path"): "wal"},
    ),
    "serve/daemon.py": ModuleSpec(
        subscript_seeds={
            "paths": {"wal": "wal", "spool": "spool",
                      "pid": "pid", "addr": "addr"},
            "service_paths": {"wal": "wal", "spool": "spool",
                              "pid": "pid", "addr": "addr"},
        },
    ),
    "serve/api.py": ModuleSpec(
        subscript_seeds={
            "paths": {"wal": "wal", "spool": "spool",
                      "pid": "pid", "addr": "addr"},
        },
        param_seeds={("merged_events", "spool_dir"): "spool"},
    ),
    # EntryStore publishes both result-cache entries and trace blobs;
    # the two classes share one contract, checked here as cache-entry.
    "perf/cache.py": ModuleSpec(
        call_seeds={("EntryStore", "path_for"): "cache-entry"},
        param_seeds={("_quarantine", "path"): "cache-entry"},
        waivers={
            "EntryStore._quarantine":
                "rename-aside of a damaged entry; atomic, and racing "
                "quarantiners are harmless (the loser's rename fails "
                "ENOENT and is swallowed)",
        },
    ),
    "perf/tracestore.py": ModuleSpec(
        call_seeds={("TraceStore", "path_for"): "trace-blob"},
    ),
    "rel/supervise.py": ModuleSpec(
        attr_seeds={("SweepJournal", "path"): "journal"},
    ),
    "obs/telemetry.py": ModuleSpec(
        attr_seeds={("TelemetrySpool", "path"): "spool"},
        call_seeds={("SweepAggregator", "_spool_paths"): "spool"},
    ),
    "obs/prom.py": ModuleSpec(
        param_seeds={("write_prom", "path"): "prom"},
    ),
}

#: Directories (relative to ``src/repro``) under the determinism lint:
#: the simulator core must stay a pure function of its inputs, or
#: golden-stats identity and trace-reuse byte-identity gates break.
DETERMINISM_DIRS = ("core", "branch", "memsys")


def spec_for(relpath):
    """The :class:`ModuleSpec` for a ``src/repro``-relative path.

    Modules under :data:`DETERMINISM_DIRS` get a determinism-only spec;
    unregistered modules return ``None`` (not analyzed).
    """
    relpath = relpath.replace("\\", "/")
    spec = HOST_MODULES.get(relpath)
    if spec is not None:
        return spec
    top = relpath.split("/", 1)[0]
    if top in DETERMINISM_DIRS:
        return ModuleSpec(determinism=True)
    return None
