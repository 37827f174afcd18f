"""Service-level chaos: crash the daemon, damage the WAL, kill workers.

Every scenario is deterministic — faults fire at armed injection points
(:mod:`repro.rel.inject`), never at random — and every assertion is the
service's core promise: **exactly-once observable completion** of every
accepted job, with results identical to a direct
:func:`run_supervised_sweep` of the same points.

Part of the fault-injection suite (``pytest -m faultinject``, the CI
``fault-injection`` job); see docs/SERVICE.md for the failure matrix.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.obs.telemetry import SweepAggregator
from repro.rel.inject import (
    DAEMON_FAULT_ENV,
    DAEMON_FAULT_TOKEN_ENV,
    arm_daemon_fault,
    arm_worker_fault,
    disarm_worker_fault,
    truncate_wal_tail,
)
from repro.rel.supervise import SupervisionPolicy, run_supervised_sweep
from repro.serve.daemon import ServiceConfig, ServiceDaemon, service_paths
from repro.serve.queue import JobQueue, point_from_spec

pytestmark = pytest.mark.faultinject

ROOT = Path(__file__).resolve().parents[2]

SPECS = [
    {"workload": "soplex", "variant": "base", "scale": 0.125,
     "max_instructions": 2000},
    {"workload": "soplex", "variant": "cfd", "scale": 0.125,
     "max_instructions": 2000},
]


def service_env(tmp_path, **extra):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               REPRO_CACHE_DIR=str(tmp_path / "cache"))
    env.pop(DAEMON_FAULT_ENV, None)
    env.pop(DAEMON_FAULT_TOKEN_ENV, None)
    env.pop("REPRO_REL_WORKER_FAULT", None)
    env.pop("REPRO_REL_WORKER_FAULT_TOKEN", None)
    env.update(extra)
    return env


def run_daemon(root, env, jobs=1, extra_args=(), check=True, timeout=300):
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "serve", root, "--once",
         "--jobs", str(jobs), "--batch", "4", "--poll-interval", "0.05",
         "--no-cache", *extra_args],
        env=env, capture_output=True, text=True, timeout=timeout,
    )
    if check:
        assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc


def wal_ops(path):
    ops = {}
    for raw in open(path, "rb").read().splitlines():
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            continue
        ops.setdefault(doc.get("op"), []).append(doc.get("job_id"))
    return ops


def assert_exactly_once_and_identical(root, ids):
    """Every accepted job done exactly once, results == a direct sweep."""
    queue = JobQueue(service_paths(root)["wal"])
    for job_id in ids:
        assert queue.get(job_id).state == "done"
    done_records = wal_ops(queue.path).get("done", [])
    assert sorted(done_records) == sorted(ids)  # one done line per job

    direct = run_supervised_sweep(
        [point_from_spec(spec) for spec in SPECS], jobs=1,
        policy=SupervisionPolicy(retries=0),
    )
    for job_id, outcome in zip(ids, direct):
        served = dict(queue.get(job_id).result)
        expected = dict(outcome.result.payload)
        served.pop("created", None)
        expected.pop("created", None)
        assert served == expected


def test_sigkill_mid_lease_then_restart_completes_exactly_once(tmp_path):
    """The headline chaos scenario (and the CI service-smoke job).

    The first daemon SIGKILLs itself at the injected point immediately
    after durably leasing its batch — the worst window: the WAL says
    "leased", no work has happened, no drain ran.  After the leases
    expire, a restarted daemon must finish every job exactly once with
    results identical to a direct supervised sweep.
    """
    root = str(tmp_path / "svc")
    queue = JobQueue(service_paths(root)["wal"])
    ids = [queue.submit(spec)[0].job_id for spec in SPECS]

    env = service_env(tmp_path)
    arm_daemon_fault(env, "kill-on-lease", str(tmp_path / "fault.token"))
    crashed = run_daemon(root, env, check=False,
                         extra_args=("--lease-seconds", "1"))
    assert crashed.returncode == -9  # SIGKILL, mid-lease

    after_crash = JobQueue(service_paths(root)["wal"])
    assert after_crash.counts()["leased"] == len(ids)  # the crash window
    assert (tmp_path / "fault.token").exists()

    time.sleep(1.2)  # let the dead daemon's leases expire
    run_daemon(root, env)  # token latched: the fault does not re-fire
    assert_exactly_once_and_identical(root, ids)


def test_recovery_survives_a_torn_wal_tail(tmp_path):
    """Crash plus torn tail: the damaged record costs one transition,
    never the queue.  Run for both damage shapes."""
    for mode in ("mid-record", "mid-utf8"):
        root = str(tmp_path / ("svc-" + mode))
        queue = JobQueue(service_paths(root)["wal"])
        ids = [queue.submit(spec)[0].job_id for spec in SPECS]
        queue.lease(owner=999, lease_seconds=0.0)  # a "dead daemon's" lease
        truncate_wal_tail(queue.path, mode=mode)

        env = service_env(tmp_path, REPRO_CACHE_DIR=str(tmp_path / "cache"))
        run_daemon(root, env)
        assert_exactly_once_and_identical(root, ids)


def test_worker_killed_mid_job_is_retried_to_done(tmp_path):
    """A SIGKILLed pool worker costs a retry, not the job: the daemon
    inherits the supervised sweep's BrokenProcessPool recovery."""
    root = str(tmp_path / "svc")
    queue = JobQueue(service_paths(root)["wal"])
    ids = [queue.submit(spec)[0].job_id for spec in SPECS]

    env = service_env(
        tmp_path,
        REPRO_REL_WORKER_FAULT="kill",
        REPRO_REL_WORKER_FAULT_TOKEN=str(tmp_path / "worker.token"),
    )
    run_daemon(root, env, jobs=2, extra_args=("--retries", "2"))
    assert (tmp_path / "worker.token").exists()  # the fault really fired
    assert_exactly_once_and_identical(root, ids)


def test_concurrent_duplicate_submits_converge_on_one_job(tmp_path):
    """Many clients, same point, daemon live: one job, one result."""
    root = str(tmp_path / "svc")
    env = service_env(tmp_path)
    submitters = [
        subprocess.Popen(
            [sys.executable, "-m", "repro", "submit", "soplex",
             "--variant", "cfd", "--scale", "0.125",
             "--max-instructions", "2000", "--queue", root,
             "--tenant", "client-%d" % index, "--json"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        for index in range(4)
    ]
    outputs = []
    for proc in submitters:
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr
        outputs.append(json.loads(stdout))
    ids = {doc["job_id"] for doc in outputs}
    assert len(ids) == 1  # every client saw the same job

    run_daemon(root, env)
    queue = JobQueue(service_paths(root)["wal"])
    job = queue.get(ids.pop())
    assert job.state == "done"
    assert job.submits == 4
    assert len(wal_ops(queue.path)["done"]) == 1


def test_heartbeat_delay_fault_stalls_but_does_not_kill(tmp_path, monkeypatch):
    """The delayed-heartbeat fault: liveness stalls, the daemon survives."""
    monkeypatch.setenv(DAEMON_FAULT_ENV, "heartbeat-delay:0.2")
    monkeypatch.setenv(DAEMON_FAULT_TOKEN_ENV, str(tmp_path / "hb.token"))
    daemon = ServiceDaemon(str(tmp_path / "svc"),
                           ServiceConfig(no_cache=True))
    start = time.monotonic()
    daemon.heartbeat(force=True)
    assert time.monotonic() - start >= 0.2
    assert daemon.counters["heartbeats_total"] == 1
    # the token latched: the next heartbeat is fast again
    start = time.monotonic()
    daemon.heartbeat(force=True)
    assert time.monotonic() - start < 0.2
    daemon.spool.close()


def in_process_daemon(tmp_path, policy):
    return ServiceDaemon(str(tmp_path / "svc"), ServiceConfig(
        jobs=2, batch=4, once=True, no_cache=True, poll_interval=0.01,
        policy=policy,
    ))


def test_lone_hung_job_is_timed_out_and_retried_to_done(tmp_path):
    """``--timeout`` covers a job leased alone: it runs in a pool worker,
    whose hang is killed after the timeout and retried."""
    daemon = in_process_daemon(
        tmp_path, SupervisionPolicy(timeout=2, retries=1, backoff=0))
    job, _, _ = daemon.queue.submit(SPECS[0])
    token = tmp_path / "hang.token"
    arm_worker_fault(os.environ, "hang:60", str(token))
    try:
        start = time.monotonic()
        daemon.run_forever()
        elapsed = time.monotonic() - start
    finally:
        disarm_worker_fault(os.environ)
    assert token.exists()  # the worker fault hook ran
    assert daemon.queue.get(job.job_id).state == "done"
    assert 2.0 <= elapsed < 30.0
    assert daemon.counters["pool_spawns_total"] == 2  # killed and replaced


def test_killed_worker_respawns_the_daemon_pool(tmp_path):
    daemon = in_process_daemon(
        tmp_path, SupervisionPolicy(retries=2, backoff=0.01))
    ids = [daemon.queue.submit(spec)[0].job_id for spec in SPECS]
    token = tmp_path / "kill.token"
    arm_worker_fault(os.environ, "kill", str(token))
    try:
        daemon.run_forever()
    finally:
        disarm_worker_fault(os.environ)
    assert token.exists()
    assert all(daemon.queue.get(i).state == "done" for i in ids)
    assert daemon.counters["pool_spawns_total"] == 2


def test_spent_respawn_budget_stops_the_round_leasing(tmp_path):
    """The respawn budget is per round: a round whose pool dies with no
    respawn left finishes its leased jobs inline and leases nothing
    more; the next round leases the rest into a fresh pool."""
    daemon = ServiceDaemon(str(tmp_path / "svc"), ServiceConfig(
        jobs=2, batch=4, no_cache=True, poll_interval=0.01,
        policy=SupervisionPolicy(retries=2, backoff=0.01,
                                 max_pool_respawns=0),
    ))
    ids = [daemon.queue.submit(dict(SPECS[0], seed=seed))[0].job_id
           for seed in range(1, 7)]
    token = tmp_path / "kill.token"
    arm_worker_fault(os.environ, "kill", str(token))
    try:
        first = daemon.run_round()
        counts = daemon.queue.counts()
        assert token.exists()
        assert counts["leased"] == 0  # every leased job finished
        assert counts["done"] == first == daemon.counters["leased_total"]
        assert counts["submitted"] >= 1  # nothing leased once degraded
        second = daemon.run_round()
    finally:
        disarm_worker_fault(os.environ)
        daemon.pool.close()
        daemon.telemetry.close()
        daemon.spool.close()
    assert first + second == len(ids)
    assert all(daemon.queue.get(i).state == "done" for i in ids)
    assert daemon.counters["rounds_total"] == 2
    assert daemon.pool.spawns == 2  # the second round forked a new pool
    fold = SweepAggregator(daemon.paths["spool"])
    fold.poll()
    assert fold.counters["degraded"] == 1
