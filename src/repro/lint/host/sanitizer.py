"""Runtime FS sanitizer: the dynamic half of the host lint.

:class:`FsSanitizer` monkeypatches the small set of primitives the
protocol files flow through — ``builtins.open``, ``os.fdopen``,
``os.replace``, ``os.fsync``, ``tempfile.mkstemp`` and ``fcntl.flock``
— classifies every touched path against
:data:`repro.lint.host.registry.PATH_CLASSES`, records an operation
trace, and validates the same ordering contracts the static analyzer
proves:

* an append/truncate of a lock-requiring class while **no** exclusive
  ``flock`` is held by this process (``unlocked-mutation``);
* a truncating ``open(path, "w")`` on an atomic or append-only class
  (``truncating-open``);
* a text-mode read of an append-only class (``text-read``);
* ``os.replace`` publishing a durable class from a temp file that was
  written but never fsync'd (``replace-without-fsync``);
* a written fd of a durable append-only class closed (observed at fd
  reuse or shutdown) without any fsync (``append-without-fsync``).

Static claims and observed behavior gate each other: the analyzer
proves the source cannot skip the discipline, the sanitizer proves the
discipline actually executed in the order claimed.

Two ways in:

* in-process, as a context manager (unit tests)::

      with FsSanitizer() as san:
          queue.submit(spec)
      assert san.violations == []

* cross-process, via the environment (chaos/smoke runs):
  ``REPRO_FS_SANITIZE=1`` installs a process-global sanitizer at
  ``repro`` import time (:func:`install_from_env`); with
  ``REPRO_FS_SANITIZE_DIR=<dir>`` each process appends its operation
  trace (and any violations) to ``<dir>/fsops-<pid>.jsonl``, which
  ``repro lint-host --trace <dir>`` validates after the run.

The shim never *blocks* an operation — production code paths behave
identically under it; it only observes and reports.
"""

import atexit
import builtins
import json
import os
import tempfile

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX host
    fcntl = None

from repro.fsio import read_records
from repro.lint.host.registry import classify_path

TRACE_ENV = "REPRO_FS_SANITIZE"
TRACE_DIR_ENV = "REPRO_FS_SANITIZE_DIR"

#: Violation kinds (the ``violation`` field of a trace/violation record).
VIOLATION_KINDS = (
    "unlocked-mutation",
    "truncating-open",
    "text-read",
    "replace-without-fsync",
    "append-without-fsync",
)


def _mode_flags(mode):
    return {
        "write": "w" in mode or "x" in mode,
        "append": "a" in mode,
        "binary": "b" in mode,
        "read": not any(flag in mode for flag in "wxa"),
    }


class FsSanitizer:
    """Record + validate filesystem protocol operations (see module doc)."""

    def __init__(self, trace_path=None):
        self.trace_path = trace_path
        self.ops = []
        self.violations = []
        self._originals = None
        self._trace_fh = None
        # fd -> {"path", "class", "written", "fsynced", "append"}
        self._fds = {}
        # realpaths fsync'd since they were last written (mkstemp temps).
        self._fsynced_paths = set()
        self._locks_held = set()      # lock-file paths LOCK_EX'd right now

    # -- recording ------------------------------------------------------

    def _emit(self, op, path, **fields):
        cls = classify_path(path) if path is not None else None
        record = {"op": op, "path": path, "pid": os.getpid(),
                  "cls": cls.name if cls else None}
        record.update(fields)
        self.ops.append(record)
        if self._trace_fh is not None:
            try:
                self._trace_fh.write(json.dumps(record) + "\n")
                self._trace_fh.flush()
            except OSError:  # pragma: no cover - spool vanished
                pass
        return cls

    def _violate(self, kind, path, detail):
        record = {"op": "violation", "violation": kind, "path": path,
                  "pid": os.getpid(), "detail": detail}
        self.violations.append(record)
        self.ops.append(record)
        if self._trace_fh is not None:
            try:
                self._trace_fh.write(json.dumps(record) + "\n")
                self._trace_fh.flush()
            except OSError:  # pragma: no cover - spool vanished
                pass

    # -- checks ----------------------------------------------------------

    def _track_fd(self, fd, path, cls, flags):
        self._finalize_fd(fd)  # the number was reused: settle the old file
        self._fds[fd] = {
            "path": path,
            "cls": cls.name if cls else None,
            "durable_append": bool(cls and cls.append_only and cls.durable
                                   and (flags["append"] or flags["write"])),
            "written": flags["append"] or flags["write"],
            "fsynced": False,
        }
        if flags["write"] or flags["append"]:
            self._fsynced_paths.discard(os.path.realpath(path))

    def _finalize_fd(self, fd):
        info = self._fds.pop(fd, None)
        if info is None:
            return
        if info["durable_append"] and info["written"] and not info["fsynced"]:
            self._violate(
                "append-without-fsync", info["path"],
                "fd for the durable %s file was written and released "
                "without os.fsync" % info["cls"],
            )

    def _check_open(self, path, mode):
        flags = _mode_flags(mode)
        cls = self._emit("open", path, mode=mode)
        if cls is None or cls.name == "lock":
            return
        if flags["write"] and (cls.atomic or cls.append_only):
            self._violate(
                "truncating-open", path,
                "open(%r) truncates the %s file in place" % (mode, cls.name),
            )
        if (flags["append"] or flags["write"]) and cls.locked:
            if not self._locks_held:
                self._violate(
                    "unlocked-mutation", path,
                    "mutating open(%r) of the %s file with no exclusive "
                    "flock held by this process" % (mode, cls.name),
                )
        if flags["read"] and not flags["binary"] and cls.append_only:
            self._violate(
                "text-read", path,
                "text-mode read of the append-only %s file (torn tails "
                "must decode per record)" % cls.name,
            )

    # -- patched primitives ----------------------------------------------

    def _open(self, file, mode="r", *args, **kwargs):
        if isinstance(file, (str, bytes, os.PathLike)) and isinstance(
                mode, str):
            path = os.fspath(file)
            if isinstance(path, bytes):  # pragma: no cover - rare
                path = path.decode(errors="replace")
            self._check_open(path, mode)
            fh = self._originals["open"](file, mode, *args, **kwargs)
            try:
                fd = fh.fileno()
            except (OSError, AttributeError):  # pragma: no cover
                return fh
            cls = classify_path(path)
            self._track_fd(fd, path, cls, _mode_flags(mode))
            return fh
        return self._originals["open"](file, mode, *args, **kwargs)

    def _fdopen(self, fd, mode="r", *args, **kwargs):
        info = self._fds.get(fd)
        if info is not None and isinstance(mode, str):
            flags = _mode_flags(mode)
            info["written"] = info["written"] or flags["write"] or \
                flags["append"]
            if flags["write"] or flags["append"]:
                self._fsynced_paths.discard(os.path.realpath(info["path"]))
            self._emit("fdopen", info["path"], mode=mode)
        return self._originals["fdopen"](fd, mode, *args, **kwargs)

    def _mkstemp(self, *args, **kwargs):
        fd, path = self._originals["mkstemp"](*args, **kwargs)
        self._emit("mkstemp", path)
        self._track_fd(fd, path, None, _mode_flags("w"))
        return fd, path

    def _replace(self, src, dst, *args, **kwargs):
        src_path = os.fspath(src) if isinstance(
            src, (str, bytes, os.PathLike)) else src
        dst_path = os.fspath(dst) if isinstance(
            dst, (str, bytes, os.PathLike)) else dst
        cls = self._emit("replace", dst_path, src=src_path)
        if (cls is not None and cls.durable and cls.atomic
                and isinstance(src_path, str)
                and os.path.realpath(src_path) not in self._fsynced_paths):
            self._violate(
                "replace-without-fsync", dst_path,
                "os.replace publishes the durable %s file from %r, which "
                "was never fsync'd" % (cls.name, os.path.basename(src_path)),
            )
        return self._originals["replace"](src, dst, *args, **kwargs)

    def _fsync(self, fd):
        raw = fd.fileno() if hasattr(fd, "fileno") else fd
        info = self._fds.get(raw)
        if info is not None:
            info["fsynced"] = True
            self._fsynced_paths.add(os.path.realpath(info["path"]))
            self._emit("fsync", info["path"])
        else:
            self._emit("fsync", None, fd=raw if isinstance(raw, int) else None)
        return self._originals["fsync"](fd)

    def _flock(self, fd, operation):
        raw = fd.fileno() if hasattr(fd, "fileno") else fd
        info = self._fds.get(raw)
        path = info["path"] if info else None
        if fcntl is not None:
            if operation & fcntl.LOCK_EX:
                self._emit("flock-ex", path)
                self._locks_held.add(raw)
            elif operation & fcntl.LOCK_UN:
                self._emit("flock-un", path)
                self._locks_held.discard(raw)
            elif operation & fcntl.LOCK_SH:  # pragma: no cover - unused
                self._emit("flock-sh", path)
        return self._originals["flock"](fd, operation)

    # -- lifecycle -------------------------------------------------------

    def __enter__(self):
        if self._originals is not None:  # pragma: no cover - misuse
            raise RuntimeError("FsSanitizer is not re-entrant")
        self._originals = {
            "open": builtins.open,
            "fdopen": os.fdopen,
            "replace": os.replace,
            "fsync": os.fsync,
            "mkstemp": tempfile.mkstemp,
            "flock": fcntl.flock if fcntl is not None else None,
        }
        if self.trace_path is not None:
            directory = os.path.dirname(self.trace_path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            self._trace_fh = self._originals["open"](self.trace_path, "a")
        builtins.open = self._open
        os.fdopen = self._fdopen
        os.replace = self._replace
        os.fsync = self._fsync
        tempfile.mkstemp = self._mkstemp
        if fcntl is not None:
            fcntl.flock = self._flock
        return self

    def __exit__(self, *exc):
        self.finalize()
        builtins.open = self._originals["open"]
        os.fdopen = self._originals["fdopen"]
        os.replace = self._originals["replace"]
        os.fsync = self._originals["fsync"]
        tempfile.mkstemp = self._originals["mkstemp"]
        if fcntl is not None:
            fcntl.flock = self._originals["flock"]
        if self._trace_fh is not None:
            try:
                self._trace_fh.close()
            except OSError:  # pragma: no cover
                pass
            self._trace_fh = None
        self._originals = None
        return False

    def finalize(self):
        """Settle every tracked fd (the close-without-fsync check)."""
        for fd in list(self._fds):
            self._finalize_fd(fd)

    def check(self):
        """Raise ``AssertionError`` on any recorded violation."""
        self.finalize()
        if self.violations:
            raise AssertionError(
                "FsSanitizer recorded %d protocol violation(s):\n%s" % (
                    len(self.violations),
                    "\n".join(
                        "  %(violation)s %(path)s: %(detail)s" % v
                        for v in self.violations
                    ),
                )
            )


# -- cross-process activation ----------------------------------------------

_GLOBAL = None


def install_from_env(environ=None):
    """Install a process-global sanitizer when ``REPRO_FS_SANITIZE`` is set.

    Called from ``repro/__init__`` so *every* process that imports the
    package — the daemon, ``repro submit`` clients, spawned pool
    workers — is traced during sanitized chaos/smoke runs.  The
    sanitizer stays installed for the process lifetime; ``atexit``
    settles open fds so close-without-fsync violations are not lost.
    """
    global _GLOBAL
    environ = os.environ if environ is None else environ
    if not environ.get(TRACE_ENV) or _GLOBAL is not None:
        return None
    trace_dir = environ.get(TRACE_DIR_ENV)
    trace_path = None
    if trace_dir:
        trace_path = os.path.join(trace_dir, "fsops-%d.jsonl" % os.getpid())
    _GLOBAL = FsSanitizer(trace_path=trace_path)
    _GLOBAL.__enter__()
    atexit.register(_GLOBAL.finalize)
    return _GLOBAL


def validate_trace_dir(directory):
    """Fold every ``fsops-*.jsonl`` trace in *directory*; returns a report.

    The per-operation checks already ran inside the traced processes;
    this reads their verdicts back through
    :func:`~repro.fsio.read_records` (torn-tolerantly, like every other
    spool) and summarizes: ``{"files", "ops", "violations": [...]}``.
    """
    report = {"directory": directory, "files": 0, "ops": 0, "violations": []}
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return report
    for name in names:
        if not (name.startswith("fsops-") and name.endswith(".jsonl")):
            continue
        report["files"] += 1
        records, _ = read_records(os.path.join(directory, name))
        report["ops"] += len(records)
        report["violations"].extend(
            doc for doc in records if doc.get("op") == "violation")
    return report
