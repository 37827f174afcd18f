"""Shared durable-filesystem primitives for the service stack.

Every multi-process component of the repro — the WAL job queue
(:mod:`repro.serve.queue`), the result cache and trace store
(:mod:`repro.perf.cache`, :mod:`repro.perf.tracestore`), the sweep
journal (:mod:`repro.rel.supervise`), the telemetry readers and the
daemon's runtime files (:mod:`repro.serve.daemon`) — writes and
replays its protocol files through this module, which holds each
discipline once:

* **flock critical sections** — writers of a shared file serialize on an
  ``flock`` of a sidecar lock file (:func:`flock_exclusive`);
* **atomic publication** — a whole file is never truncated in place;
  it is written to a same-directory temp file, flushed, fsync'd,
  ``os.replace``'d over the target and the directory entry is fsync'd
  (:func:`atomic_replace`);
* **append-only logs** — one JSON record per line; an append first
  seals a torn tail left by a crashed writer, then writes and fsyncs
  its line (:func:`append_record`); replay reads bytes, consumes only
  complete lines and decodes each on its own (:func:`read_records`);
* **directory durability** — a freshly *created* file is only durable
  once its directory entry is too (:func:`fsync_directory`).

The host lint (:mod:`repro.lint.host`) trusts these helpers: ``with
flock_exclusive(...)`` is a recognized lock context, ``atomic_replace``
is a publish and ``append_record`` an append that are durable unless
called with ``durable=False``, and ``read_records`` reads binary.
"""

import contextlib
import json
import os
import stat
import tempfile

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX host
    fcntl = None

#: The process umask, read once at import: reading it means setting it,
#: which is process-wide, and the service daemon's HTTP thread publishes
#: files while sweep rounds run.
_UMASK = os.umask(0o077)
os.umask(_UMASK)


@contextlib.contextmanager
def flock_exclusive(lock_path):
    """Hold an exclusive ``flock`` on *lock_path* for the ``with`` body.

    The lock file is created (mode ``"a"``: never truncated — another
    process may already hold it) along with its directory.  A no-op
    where ``fcntl`` is unavailable, matching the historical behavior of
    every caller.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX host
        yield
        return
    directory = os.path.dirname(lock_path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(lock_path, "a") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fh, fcntl.LOCK_UN)


def fsync_directory(path):
    """Fsync the directory entry for *path* (best effort).

    ``os.replace`` and file creation are only durable once the
    *directory* is flushed too; a crash between the rename and the
    directory flush can lose the new entry.  Accepts either a directory
    or a file (whose parent is synced).  Returns True when the fsync
    happened; failures (platforms where directories cannot be opened or
    fsync'd) are swallowed — durability is then best-effort, exactly as
    it was before the call existed.
    """
    directory = path if os.path.isdir(path) else (os.path.dirname(path) or ".")
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return False
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - odd filesystems
        return False
    finally:
        os.close(fd)
    return True


def atomic_replace(path, data, durable=True):
    """Atomically publish *data* (str or bytes) at *path*.

    Full ordering: same-directory temp file -> write -> flush ->
    ``os.fsync`` -> ``os.replace`` -> directory fsync.  No reader ever
    observes a partial file, and (with *durable*) the publication
    survives a crash.  *durable* False skips both fsyncs for
    low-stakes runtime files (pidfile, address file) where atomicity
    matters but a lost-on-power-cut write is harmless.  The file gets
    the mode a plain ``open(path, "w")`` would leave: the target's own
    permission bits if it exists, else ``0o666`` less the umask (the
    temp file is created ``0o600``).
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    binary = isinstance(data, bytes)
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        mode = 0o666 & ~_UMASK
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb" if binary else "w") as fh:
            os.fchmod(fh.fileno(), mode)
            fh.write(data)
            if durable:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    if durable:
        fsync_directory(path)
    return path


def append_record(path, doc, durable=True):
    """Append *doc* as one JSON line to the log at *path*; returns *doc*.

    A crash mid-append leaves an unterminated tail.  Every append first
    checks the last byte and, if the tail is torn, starts its line with
    a newline, so the torn bytes become a line of their own that replay
    skips instead of swallowing this record with them.  The check runs
    before *every* append because another process may have torn the
    tail since this one last wrote.  With *durable* the line is fsync'd
    before this returns, and so is the directory entry of a log this
    append creates.
    """
    line = (json.dumps(doc) + "\n").encode()
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "ab+") as fh:
        end = fh.seek(0, os.SEEK_END)
        if end:
            fh.seek(end - 1)
            if fh.read(1) != b"\n":
                line = b"\n" + line
        fh.write(line)
        fh.flush()
        if durable:
            os.fsync(fh.fileno())
    if durable and not end:
        fsync_directory(path)
    return doc


def read_records(path, offset=0):
    """The JSON-object records of the log at *path* past byte *offset*.

    Returns ``(records, next_offset)``.  Only newline-terminated lines
    are consumed, so a tail still being written (or torn by a crash)
    stays for the next read from *next_offset*.  Each line is decoded
    and parsed on its own: one that is not UTF-8, not JSON or not an
    object costs that line, never the log.  A missing or unreadable
    file has no records.
    """
    try:
        with open(path, "rb") as fh:
            fh.seek(offset)
            chunk = fh.read()
    except OSError:
        return [], offset
    end = chunk.rfind(b"\n") + 1
    records = []
    for raw in chunk[:end].splitlines():
        try:
            doc = json.loads(raw.decode("utf-8"))
        except ValueError:  # UnicodeDecodeError is a ValueError too
            continue
        if isinstance(doc, dict):
            records.append(doc)
    return records, offset + end
