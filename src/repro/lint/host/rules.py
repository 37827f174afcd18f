"""Finding catalogue for the host concurrency & durability lint.

Mirrors the guest catalogue (:mod:`repro.lint.rules`): every finding is
a numbered rule with a fixed severity, grouped by analysis family:

``HL1xx``
    Lockset analysis — protocol-file mutations must be dominated by the
    matching ``flock`` critical section.
``HW2xx``
    Atomic-write discipline — tmp -> flush/fsync -> ``os.replace``
    ordering, directory fsync where durability is claimed, no
    truncating ``open(path, "w")`` on protocol paths.
``HT3xx``
    Torn-tail decode discipline — readers of append-only files read
    binary and decode per record.
``HD4xx``
    Determinism — the simulator core (``repro.core``/``repro.branch``/
    ``repro.memsys``) must stay a pure function of its inputs.

Like the guest linter, the host linter reports *definite* violations
only: a rule fires when the flagged code violates the contract on every
execution that reaches it, never on a may-analysis guess.  That keeps
the repo-wide CI gate at zero findings without a suppression culture.

Findings render to a stable JSON shape (sorted keys, path/line-ordered
lists) so CI artifacts diff cleanly.
"""

import json
from dataclasses import dataclass

from repro.lint.rules import ERROR, WARNING

#: rule id -> (severity, one-line summary of what the rule means).
HOST_RULES = {
    "HL101": (ERROR, "protocol-file mutation outside its flock critical "
                     "section"),
    "HL102": (ERROR, "public method reaches a lock-requiring writer "
                     "without holding the lock"),
    "HW201": (ERROR, "truncating open() on a protocol path (publish via "
                     "tmp + os.replace instead)"),
    "HW202": (ERROR, "os.replace publish of a durable path without an "
                     "os.fsync of the written file"),
    "HW203": (ERROR, "durable publish without a directory fsync "
                     "(fsync_directory) after os.replace"),
    "HW204": (ERROR, "append to a durable append-only path without "
                     "os.fsync"),
    "HT301": (ERROR, "append-only protocol file opened for reading in "
                     "text mode (read binary, decode per record)"),
    "HD401": (ERROR, "simulation-core module imports a nondeterminism "
                     "source (time/random)"),
    "HD402": (ERROR, "id() in simulation core (identity values vary "
                     "across runs and hosts)"),
    "HD403": (ERROR, "iteration over an unordered set in simulation "
                     "core (order is hash-seed dependent)"),
}


@dataclass(frozen=True)
class HostFinding:
    """One finding: a rule instance anchored at file:line."""

    rule: str
    path: str
    line: int
    message: str

    @property
    def severity(self):
        return HOST_RULES[self.rule][0]

    def sort_key(self):
        return (self.path, self.line, self.rule, self.message)

    def to_dict(self):
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }

    def render(self):
        """``serve/queue.py:248: error HL101: ...``"""
        return "%s:%d: %s %s: %s" % (self.path, self.line, self.severity,
                                     self.rule, self.message)


def host_finding(rule, path, line, message):
    """Build a :class:`HostFinding`, checking the rule id is catalogued."""
    if rule not in HOST_RULES:
        raise KeyError("unknown host lint rule %r" % rule)
    return HostFinding(rule=rule, path=path, line=line, message=message)


def sort_findings(findings):
    """Deterministic path/line/rule order, duplicates removed."""
    return sorted(set(findings), key=HostFinding.sort_key)


def render_host_json(findings, files_analyzed=0, waivers=None, trace=None):
    """The ``repro lint-host --json`` payload (stable key order)."""
    findings = sort_findings(findings)
    payload = {
        "kind": "repro.lint_host",
        "version": 1,
        "files_analyzed": files_analyzed,
        "total_findings": len(findings),
        "findings": [f.to_dict() for f in findings],
        "waivers": dict(waivers or {}),
    }
    if trace is not None:
        payload["trace"] = trace
    return json.dumps(payload, sort_keys=True, indent=2)


__all__ = [
    "ERROR",
    "WARNING",
    "HOST_RULES",
    "HostFinding",
    "host_finding",
    "sort_findings",
    "render_host_json",
]
