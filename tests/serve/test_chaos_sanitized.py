"""The serve chaos suite's headline scenario, re-run under FsSanitizer.

``REPRO_FS_SANITIZE=1`` installs the filesystem shim (see
``repro.lint.host.sanitizer``) in every process that imports ``repro``
— the daemon, the submit path, spawned pool workers — so the whole
fleet's protocol-file traffic (WAL appends, cache-entry publishes,
journal writes) is traced and checked *while the crash scenario runs*.
The assertion is the static analyzer's claim made empirical: even on
the crash-recovery paths, zero durability-discipline violations.

Part of the fault-injection suite (``pytest -m faultinject``).
"""

import pytest

from repro.lint.host.sanitizer import validate_trace_dir
from repro.rel.inject import arm_daemon_fault
from repro.serve.daemon import service_paths
from repro.serve.queue import JobQueue

from .test_chaos import SPECS, run_daemon, service_env

pytestmark = pytest.mark.faultinject


def sanitized_env(tmp_path, trace_dir):
    return service_env(
        tmp_path,
        REPRO_FS_SANITIZE="1",
        REPRO_FS_SANITIZE_DIR=str(trace_dir),
    )


def assert_clean_trace(trace_dir):
    report = validate_trace_dir(str(trace_dir))
    assert report["files"] >= 1, "sanitizer produced no traces"
    assert report["ops"] >= 1, "sanitizer traced no operations"
    assert report["violations"] == [], "\n".join(
        "%(violation)s %(path)s: %(detail)s" % v
        for v in report["violations"]
    )
    return report


def test_clean_serve_run_traces_and_validates(tmp_path):
    """A fault-free daemon pass under the sanitizer: traces, no findings."""
    root = str(tmp_path / "svc")
    trace_dir = tmp_path / "fsops"
    queue = JobQueue(service_paths(root)["wal"])
    ids = [queue.submit(spec)[0].job_id for spec in SPECS]

    run_daemon(root, sanitized_env(tmp_path, trace_dir))

    after = JobQueue(service_paths(root)["wal"])
    for job_id in ids:
        assert after.get(job_id).state == "done"
    report = assert_clean_trace(trace_dir)
    # the daemon's WAL traffic must actually appear in the trace
    assert report["ops"] > len(ids)


def test_sigkill_mid_lease_recovery_is_sanitizer_clean(tmp_path):
    """The headline chaos scenario with the shim installed fleet-wide.

    Crash-window writes (the durable lease taken moments before
    SIGKILL) and recovery-path writes (lease expiry, re-lease, done)
    are exactly where a missing fsync or an unlocked append would
    hide; the sanitizer watches both daemons commit every one.
    """
    import time

    root = str(tmp_path / "svc")
    trace_dir = tmp_path / "fsops"
    queue = JobQueue(service_paths(root)["wal"])
    ids = [queue.submit(spec)[0].job_id for spec in SPECS]

    env = sanitized_env(tmp_path, trace_dir)
    arm_daemon_fault(env, "kill-on-lease", str(tmp_path / "fault.token"))
    crashed = run_daemon(root, env, check=False,
                         extra_args=("--lease-seconds", "1"))
    assert crashed.returncode == -9  # SIGKILL mid-lease, as armed

    time.sleep(1.2)  # let the dead daemon's leases expire
    run_daemon(root, env)  # restart completes every job

    after = JobQueue(service_paths(root)["wal"])
    for job_id in ids:
        assert after.get(job_id).state == "done"

    report = assert_clean_trace(trace_dir)
    # both daemon processes (and the submit path above, in-process)
    # left traces: the crashed daemon's file survives the SIGKILL
    # because the shim appends per operation, not at exit
    assert report["files"] >= 2
