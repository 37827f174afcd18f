"""Host-side concurrency & durability lint (``repro lint-host``).

``repro.lint`` checks *guest* programs; this package turns the same
numbered-rule treatment on the repo's own service stack.  It proves —
statically, over the stdlib ``ast`` — that every reachable mutation of
a protocol file (WAL, journal, cache entry, spool, pidfile...) obeys
that file's contract from :mod:`repro.lint.host.registry`: flock'd
where locking is claimed, tmp/fsync/``os.replace`` where atomicity is
claimed, binary per-record decode where torn tails are tolerated, and
no nondeterminism sources inside the simulator core.

The package's other half, :mod:`repro.lint.host.sanitizer`, validates
the same contracts *dynamically* by shimming the filesystem primitives
during tests and chaos runs — the static pass proves the code cannot
skip the discipline, the runtime pass proves the discipline actually
executed.

Entry points: :func:`lint_host` (walk ``src/repro``), CLI
``repro lint-host [--json] [--trace DIR]`` (exit code 7 on findings).
"""

import os

from repro.lint.host.analyzer import analyze_source
from repro.lint.host.registry import (DETERMINISM_DIRS, HOST_MODULES,
                                      PATH_CLASSES, classify_path, spec_for)
from repro.lint.host.rules import (HOST_RULES, HostFinding, host_finding,
                                   render_host_json, sort_findings)
from repro.lint.host.sanitizer import (FsSanitizer, install_from_env,
                                       validate_trace_dir)


def _default_root():
    # .../src/repro/lint/host/__init__.py -> .../src/repro
    return os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))


def lint_host(root=None):
    """Lint every registered module under *root* (default: ``src/repro``).

    Walks the tree, resolves each file's :class:`ModuleSpec` via
    :func:`repro.lint.host.registry.spec_for`, and runs the analyzer.
    Returns ``(findings, files_analyzed, waivers)`` where *waivers*
    maps ``relpath::Class.method`` to its documented justification.
    """
    root = _default_root() if root is None else root
    findings = []
    files_analyzed = 0
    waivers = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(
            d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            full = os.path.join(dirpath, name)
            relpath = os.path.relpath(full, root).replace(os.sep, "/")
            spec = spec_for(relpath)
            if spec is None:
                continue
            with open(full, "rb") as fh:
                source = fh.read().decode("utf-8")
            findings.extend(analyze_source(source, spec, relpath))
            files_analyzed += 1
            for site, reason in spec.waivers.items():
                waivers["%s::%s" % (relpath, site)] = reason
    return sort_findings(findings), files_analyzed, waivers


__all__ = [
    "DETERMINISM_DIRS",
    "FsSanitizer",
    "HOST_MODULES",
    "HOST_RULES",
    "HostFinding",
    "PATH_CLASSES",
    "analyze_source",
    "classify_path",
    "host_finding",
    "install_from_env",
    "lint_host",
    "render_host_json",
    "sort_findings",
    "spec_for",
    "validate_trace_dir",
]
