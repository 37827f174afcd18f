"""Golden fixtures and mutation tests for every host-lint rule.

Two complementary angles:

* **fixtures** — minimal synthetic modules that violate exactly one
  rule, proving each rule fires on its textbook shape and stays quiet
  on the disciplined variant;
* **mutations** — the *real* repo sources with one discipline edit
  applied textually (drop the lock, delete the fsync, read text),
  proving the analyzer catches each regression in the code it actually
  guards.  A mutation test failing to fire means the CI gate would
  wave the real regression through.
"""

from pathlib import Path

import pytest

from repro.lint.host import analyze_source, spec_for
from repro.lint.host.registry import ModuleSpec

SRC = Path(__file__).resolve().parents[3] / "src" / "repro"


def lint(source, relpath="serve/queue.py", spec=None):
    spec = spec_for(relpath) if spec is None else spec
    return analyze_source(source, spec, relpath)


def rules_of(findings):
    return sorted({f.rule for f in findings})


def mutate(relpath, old, new):
    source = (SRC / relpath).read_text()
    assert old in source, "mutation anchor vanished from %s" % relpath
    return source.replace(old, new)


# -- HL1xx: lockset ---------------------------------------------------------

QUEUE_SPEC = ModuleSpec(attr_seeds={("Q", "path"): "wal"})

LOCKED_WRITER = '''
from repro.fsio import flock_exclusive

class Q:
    def _lock(self):
        return flock_exclusive(self.path + ".lock")

    def submit(self, record):
        with self._lock():
            self._append(record)

    def _append(self, record):
        import os
        with open(self.path, "a") as fh:
            fh.write("x")
            fh.flush()
            os.fsync(fh.fileno())
'''


def test_locked_writer_fixture_is_clean():
    assert lint(LOCKED_WRITER, spec=QUEUE_SPEC) == []


def test_hl101_public_direct_write_without_lock():
    source = LOCKED_WRITER.replace(
        "    def submit(self, record):\n"
        "        with self._lock():\n"
        "            self._append(record)\n",
        "    def submit(self, record):\n"
        "        import os\n"
        "        with open(self.path, \"a\") as fh:\n"
        "            fh.write(\"x\")\n"
        "            fh.flush()\n"
        "            os.fsync(fh.fileno())\n",
    )
    assert rules_of(lint(source, spec=QUEUE_SPEC)) == ["HL101"]


def test_hl102_public_method_reaches_writer_unlocked():
    source = LOCKED_WRITER.replace(
        "        with self._lock():\n"
        "            self._append(record)\n",
        "        self._append(record)\n",
    )
    assert rules_of(lint(source, spec=QUEUE_SPEC)) == ["HL102"]


def test_hl102_obligation_propagates_through_private_chain():
    source = '''
class Q:
    def submit(self, record):
        self._outer(record)

    def _outer(self, record):
        self._append(record)

    def _append(self, record):
        import os
        with open(self.path, "a") as fh:
            fh.write("x")
            fh.flush()
            os.fsync(fh.fileno())
'''
    findings = lint(source, spec=QUEUE_SPEC)
    assert rules_of(findings) == ["HL102"]
    # the finding lands on the public entry, not the private plumbing
    assert all("submit" in f.message for f in findings)


def test_hl_mutation_queue_submit_without_lock():
    source = mutate(
        "serve/queue.py",
        "        with self._lock():\n"
        "            self.poll()\n"
        "            existing = self.jobs.get(job_id)",
        "        if True:\n"
        "            self.poll()\n"
        "            existing = self.jobs.get(job_id)",
    )
    findings = analyze_source(source, spec_for("serve/queue.py"),
                              "serve/queue.py")
    assert "HL102" in rules_of(findings)
    assert any("submit" in f.message for f in findings)


def test_hl_mutation_cache_store_without_write_lock():
    source = mutate(
        "perf/cache.py",
        "            with self._write_lock():",
        "            if True:",
    )
    findings = analyze_source(source, spec_for("perf/cache.py"),
                              "perf/cache.py")
    assert "HL101" in rules_of(findings)


# -- HW2xx: atomic-write / fsync discipline ---------------------------------

CACHE_SPEC = ModuleSpec(call_seeds={("C", "path_for"): "cache-entry"})

ATOMIC_WRITER = '''
import os
import tempfile

from repro.fsio import flock_exclusive, fsync_directory

class C:
    def _write_lock(self):
        return flock_exclusive(self.root + "/.write.lock")

    def store(self, key, payload):
        path = self.path_for(key)
        with self._write_lock():
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path))
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
            fsync_directory(path)
'''


def test_atomic_writer_fixture_is_clean():
    assert lint(ATOMIC_WRITER, "perf/cache.py", CACHE_SPEC) == []


def test_hw201_truncating_open_on_protocol_path():
    source = '''
class C:
    def store(self, key, payload):
        path = self.path_for(key)
        with open(path, "w") as fh:
            fh.write(payload)
'''
    findings = lint(source, "perf/cache.py", CACHE_SPEC)
    assert "HW201" in rules_of(findings)


def test_hw202_replace_without_file_fsync():
    source = ATOMIC_WRITER.replace(
        "                fh.flush()\n"
        "                os.fsync(fh.fileno())\n", "")
    findings = lint(source, "perf/cache.py", CACHE_SPEC)
    assert rules_of(findings) == ["HW202"]


def test_hw203_replace_without_directory_fsync():
    source = ATOMIC_WRITER.replace(
        "            fsync_directory(path)\n", "")
    findings = lint(source, "perf/cache.py", CACHE_SPEC)
    assert rules_of(findings) == ["HW203"]


def test_hw204_durable_append_without_fsync():
    source = '''
class J:
    def _append(self, line):
        with open(self.path, "a") as fh:
            fh.write(line)
            fh.flush()
'''
    spec = ModuleSpec(attr_seeds={("J", "path"): "journal"})
    findings = lint(source, "rel/supervise.py", spec)
    assert rules_of(findings) == ["HW204"]


def test_best_effort_append_needs_no_fsync():
    # telemetry spools claim no durability: flush-only appends are fine
    source = '''
class S:
    def emit(self, line):
        with open(self.path, "a") as fh:
            fh.write(line)
            fh.flush()
'''
    spec = ModuleSpec(attr_seeds={("S", "path"): "spool"})
    assert lint(source, "obs/telemetry.py", spec) == []


def _store_publish_not_durable():
    # Both stores publish through EntryStore.publish's atomic_replace.
    source = mutate("perf/cache.py", "atomic_replace(path, data)",
                    "atomic_replace(path, data, durable=False)")
    return analyze_source(source, spec_for("perf/cache.py"), "perf/cache.py")


def test_hw_mutation_cache_store_fsync_removed():
    assert "HW202" in rules_of(_store_publish_not_durable())


def test_hw_mutation_tracestore_dir_fsync_removed():
    tracestore = (SRC / "perf" / "tracestore.py").read_text()
    assert "return self.publish(key, trace.to_bytes())" in tracestore
    assert "HW203" in rules_of(_store_publish_not_durable())


def test_hw_mutation_journal_append_fsync_removed():
    source = mutate(
        "rel/supervise.py",
        '            "payload": payload,\n        })',
        '            "payload": payload,\n        }, durable=False)',
    )
    findings = analyze_source(source, spec_for("rel/supervise.py"),
                              "rel/supervise.py")
    assert rules_of(findings) == ["HW204"]


def test_hw_mutation_pidfile_written_in_place():
    source = mutate(
        "serve/daemon.py",
        '        atomic_replace(self.paths["pid"], "%d\\n" % os.getpid(),\n'
        "                       durable=False)",
        '        with open(self.paths["pid"], "w") as fh:\n'
        '            fh.write("%d\\n" % os.getpid())',
    )
    findings = analyze_source(source, spec_for("serve/daemon.py"),
                              "serve/daemon.py")
    assert rules_of(findings) == ["HW201"]


# -- HT301: torn-tail decode ------------------------------------------------

def test_ht301_text_read_of_append_only_file():
    source = '''
def load(path):
    with open(path) as fh:
        return fh.readlines()
'''
    spec = ModuleSpec(param_seeds={("load", "path"): "journal"})
    findings = lint(source, "rel/supervise.py", spec)
    assert rules_of(findings) == ["HT301"]


def test_binary_read_of_append_only_file_is_clean():
    source = '''
def load(path):
    with open(path, "rb") as fh:
        return fh.read().splitlines()
'''
    spec = ModuleSpec(param_seeds={("load", "path"): "journal"})
    assert lint(source, "rel/supervise.py", spec) == []


def test_text_read_of_atomic_file_is_clean():
    # the pidfile is atomically replaced, never torn: text reads are fine
    source = '''
def read_pid(path):
    with open(path) as fh:
        return int(fh.read())
'''
    spec = ModuleSpec(param_seeds={("read_pid", "path"): "pid"})
    assert lint(source, "serve/daemon.py", spec) == []


def test_ht_mutation_history_loader_reads_text():
    # The sweep journal's loader, reading its append-only log as text.
    source = mutate("rel/supervise.py",
                    "        records, _ = read_records(self.path)\n",
                    "        with open(self.path) as fh:\n"
                    "            records = [json.loads(line) for line in fh]\n")
    findings = analyze_source(source, spec_for("rel/supervise.py"),
                              "rel/supervise.py")
    assert "HT301" in rules_of(findings)


# -- HD4xx: determinism -----------------------------------------------------

DET = spec_for("core/fixture.py")


def test_determinism_spec_applies_to_core_modules():
    assert DET is not None and DET.determinism
    assert spec_for("branch/x.py").determinism
    assert spec_for("memsys/x.py").determinism
    assert spec_for("obs/x.py") is None  # unregistered, not determinism


@pytest.mark.parametrize("source,line", [
    ("import time\n", 1),
    ("import random\n", 1),
    ("from time import monotonic\n", 1),
    ("from random import Random\n", 1),
    ("import os, time\n", 1),
])
def test_hd401_nondeterminism_imports(source, line):
    findings = lint(source, "core/fixture.py", DET)
    assert rules_of(findings) == ["HD401"]
    assert findings[0].line == line


def test_hd402_id_call():
    findings = lint("def f(a):\n    return id(a)\n", "core/fixture.py", DET)
    assert rules_of(findings) == ["HD402"]


def test_hd403_set_iteration():
    findings = lint("def f(s):\n    for x in set(s):\n        pass\n",
                    "core/fixture.py", DET)
    assert rules_of(findings) == ["HD403"]


def test_hd403_sorted_set_iteration_is_clean():
    assert lint("def f(s):\n    for x in sorted(set(s)):\n        pass\n",
                "core/fixture.py", DET) == []


def test_deterministic_core_fixture_is_clean():
    source = '''
import os

def simulate(program, config):
    total = 0
    for inst in program:
        total += inst
    return total
'''
    assert lint(source, "core/fixture.py", DET) == []


# -- analyzer plumbing ------------------------------------------------------

def test_waived_method_is_exempt():
    source = '''
class C:
    def load(self, key):
        self._quarantine(self.path_for(key))

    def _quarantine(self, path):
        import os
        os.replace(path, path + ".corrupt")
'''
    seeds = {
        "call_seeds": {("C", "path_for"): "cache-entry"},
        "param_seeds": {("_quarantine", "path"): "cache-entry"},
    }
    spec = ModuleSpec(
        waivers={"C._quarantine": "rename-aside of a damaged entry"},
        **seeds)
    assert lint(source, "perf/cache.py", spec) == []
    # without the waiver the same source gates
    assert lint(source, "perf/cache.py", ModuleSpec(**seeds)) != []


def test_taint_flows_through_join_and_fstring():
    source = '''
import os

def merged(spool_dir):
    rows = []
    for name in os.listdir(spool_dir):
        with open(os.path.join(spool_dir, name)) as fh:
            rows.extend(fh.readlines())
    return rows
'''
    spec = ModuleSpec(param_seeds={("merged", "spool_dir"): "spool"})
    assert rules_of(lint(source, "serve/api.py", spec)) == ["HT301"]


def test_findings_render_stably():
    source = LOCKED_WRITER.replace(
        "        with self._lock():\n"
        "            self._append(record)\n",
        "        self._append(record)\n",
    )
    findings = lint(source, spec=QUEUE_SPEC)
    assert len(findings) == 1
    rendered = findings[0].render()
    assert rendered.startswith("serve/queue.py:")
    assert " error HL102: " in rendered
