"""The service daemon: scheduling, backpressure, parity with direct sweeps.

The in-process tests drive :class:`ServiceDaemon` directly in ``--once``
mode (run until the queue is empty, then return); the drain-under-load
test goes through real subprocesses and the ``repro drain`` CLI, because
SIGTERM handling is only honest in a real process.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.obs.prom import render_service
from repro.obs.telemetry import SweepAggregator
from repro.perf.cache import CachedSimResult, ResultCache
from repro.rel.supervise import SupervisionPolicy, run_supervised_sweep
from repro.serve.daemon import (
    ServiceConfig,
    ServiceDaemon,
    TokenBucket,
    drain,
    service_paths,
)
from repro.serve.queue import JobQueue, point_from_spec

ROOT = Path(__file__).resolve().parents[2]

SPEC = {"workload": "soplex", "variant": "cfd", "scale": 0.125,
        "max_instructions": 2000}


def make_daemon(tmp_path, **overrides):
    settings = dict(jobs=1, once=True, no_cache=True, poll_interval=0.01,
                    policy=SupervisionPolicy(retries=0))
    settings.update(overrides)
    return ServiceDaemon(str(tmp_path / "svc"), ServiceConfig(**settings))


def comparable(payload):
    """A result payload minus its wall-clock store timestamp."""
    trimmed = dict(payload)
    trimmed.pop("created", None)
    return trimmed


def test_once_mode_completes_submitted_jobs(tmp_path):
    daemon = make_daemon(tmp_path)
    job, _, _ = daemon.queue.submit(SPEC)
    assert daemon.run_forever() == 0
    done = daemon.queue.get(job.job_id)
    assert done.state == "done"
    assert done.result["kind"] == "repro.perf.result"
    assert daemon.counters["done_total"] == 1
    # runtime files are gone after a clean exit
    assert not os.path.exists(daemon.paths["pid"])


def test_results_identical_to_direct_supervised_sweep(tmp_path):
    specs = [dict(SPEC, variant=variant) for variant in ("base", "cfd")]
    daemon = make_daemon(tmp_path)
    ids = [daemon.queue.submit(spec)[0].job_id for spec in specs]
    daemon.run_forever()

    direct = run_supervised_sweep(
        [point_from_spec(spec) for spec in specs], jobs=1,
        policy=SupervisionPolicy(retries=0),
    )
    for job_id, outcome in zip(ids, direct):
        served = daemon.queue.get(job_id).result
        assert comparable(served) == comparable(outcome.result.payload)


def test_done_record_carries_supervision_knobs(tmp_path):
    policy = SupervisionPolicy(timeout=30.0, retries=1)
    daemon = make_daemon(tmp_path, policy=policy)
    job, _, _ = daemon.queue.submit(SPEC)
    daemon.run_forever()
    lines = [json.loads(raw) for raw
             in open(daemon.queue.path, "rb").read().splitlines()]
    done = [doc for doc in lines if doc.get("op") == "done"]
    assert done[0]["supervision"] == policy.to_dict()


def test_done_record_names_its_cache_entry(tmp_path, monkeypatch):
    """A worker stores the result; the ``done`` record names the entry,
    and a second service sharing the cache serves it as a hit."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    daemon = make_daemon(tmp_path, jobs=2, no_cache=False)
    job, _, _ = daemon.queue.submit(SPEC)
    daemon.run_forever()
    done = JobQueue(daemon.paths["wal"]).get(job.job_id)
    assert done.state == "done" and done.cache_key
    entry = ResultCache().load(done.cache_key)
    assert entry is not None
    assert (entry.stats.to_dict()
            == CachedSimResult(done.result).stats.to_dict())

    other = ServiceDaemon(str(tmp_path / "svc2"), ServiceConfig(
        jobs=2, once=True, poll_interval=0.01,
        policy=SupervisionPolicy(retries=0),
    ))
    again, _, _ = other.queue.submit(SPEC)
    other.run_forever()
    served = JobQueue(other.paths["wal"]).get(again.job_id)
    assert served.state == "done" and served.cache_key == done.cache_key
    assert served.seconds == 0.0  # a hit: nothing was simulated
    assert other.pool.spawns == 0
    assert comparable(served.result) == comparable(done.result)


def test_unbuildable_spec_fails_cleanly(tmp_path):
    daemon = make_daemon(tmp_path)
    job, _, _ = daemon.queue.submit(dict(SPEC, workload="no-such-workload"))
    daemon.run_forever()
    failed = daemon.queue.get(job.job_id)
    assert failed.state == "failed"
    assert "no-such-workload" in failed.error
    assert daemon.counters["failed_total"] == 1


def test_submit_sheds_beyond_max_depth(tmp_path):
    daemon = make_daemon(tmp_path, max_depth=1)
    first, created, shed = daemon.submit(SPEC)
    assert created and not shed
    none_job, _, shed2 = daemon.submit(dict(SPEC, variant="base"))
    assert none_job is None and shed2
    assert daemon.counters["shed_total"] == 1


def test_token_bucket_refills_at_rate():
    bucket = TokenBucket(rate=10.0, burst=2)
    now = time.monotonic()
    assert bucket.take(now) and bucket.take(now)
    assert not bucket.take(now)          # burst exhausted
    assert bucket.take(now + 0.2)        # 0.2s * 10/s = 2 tokens back


def test_rate_limit_throttles_but_work_still_finishes(tmp_path):
    # burst 1, refill every 2s: the second job must wait for a token
    # (throttled at least once by the fast 10ms poll), then completes.
    daemon = make_daemon(tmp_path, rate=0.5, burst=1, batch=4)
    ids = [daemon.queue.submit(dict(SPEC, variant=v))[0].job_id
           for v in ("base", "cfd")]
    daemon.run_forever()
    assert all(daemon.queue.get(i).state == "done" for i in ids)
    assert daemon.counters["throttled_total"] >= 1


def test_health_and_metrics_reflect_queue_state(tmp_path):
    daemon = make_daemon(tmp_path, max_depth=5)
    daemon.queue.submit(SPEC)
    health = daemon.health()
    assert health["queue"]["depth"] == 1
    assert health["config"]["max_depth"] == 5
    assert health["config"]["policy"] == daemon.config.policy.to_dict()
    text = render_service(health)
    assert "repro_service_up 1" in text
    assert "repro_service_queue_depth 1" in text
    assert 'repro_service_jobs{state="submitted"} 1' in text
    assert "repro_service_shed_total 0" in text


def test_heartbeats_land_in_the_spool(tmp_path):
    daemon = make_daemon(tmp_path)
    daemon.queue.submit(SPEC)
    daemon.run_forever()
    spool = daemon.paths["spool"]
    events = []
    for name in os.listdir(spool):
        if name.startswith("daemon-"):
            with open(os.path.join(spool, name), "rb") as fh:
                events += [json.loads(raw) for raw in fh.read().splitlines()]
    kinds = {event["kind"] for event in events}
    assert {"daemon_start", "daemon_heartbeat", "daemon_lease",
            "daemon_stop"} <= kinds
    beat = next(e for e in events if e["kind"] == "daemon_heartbeat")
    assert "counts" in beat and "counters" in beat


def test_drain_under_load_loses_no_leased_jobs(tmp_path):
    """SIGTERM mid-batch: the daemon finishes its leased jobs and exits 0.

    ``repro drain`` is the contract: exit 0 iff the daemon stopped with
    zero leased jobs — every accepted job is either done or durably
    back in the queue.
    """
    root = str(tmp_path / "svc")
    queue = JobQueue(service_paths(root)["wal"])
    ids = [queue.submit(dict(SPEC, variant=v, seed=s))[0].job_id
           for v, s in (("base", 1), ("cfd", 1), ("base", 2), ("cfd", 2))]

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               REPRO_CACHE_DIR=str(tmp_path / "cache"))
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", root, "--jobs", "1",
         "--batch", "2", "--poll-interval", "0.05", "--no-cache"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    try:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:  # wait for the daemon to lease
            queue.poll()
            if any(queue.get(i).state != "submitted" for i in ids):
                break
            time.sleep(0.05)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "drain", root, "--timeout", "90",
             "--json"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["clean"] and report["queue"]["leased"] == 0
    finally:
        # The daemon drops its pidfile (which ends ``drain``'s wait) a
        # moment before its interpreter exits: wait for the exit, and
        # kill it only if it never comes.
        try:
            server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait(timeout=30)
    assert server.returncode == 0
    # nothing lost: every job is done or durably submitted, none leased
    after = JobQueue(service_paths(root)["wal"])
    states = {i: after.get(i).state for i in ids}
    assert all(state in ("done", "submitted") for state in states.values())
    assert any(state == "done" for state in states.values())


def test_drain_with_no_daemon_is_clean(tmp_path):
    root = str(tmp_path / "svc")
    JobQueue(service_paths(root)["wal"])
    report = drain(root, timeout=1.0)
    assert not report["found"] and report["clean"]


def test_sigterm_handler_requests_drain(tmp_path):
    daemon = make_daemon(tmp_path)
    daemon._install_signal_handlers()
    try:
        os.kill(os.getpid(), signal.SIGTERM)
        time.sleep(0.05)
        assert daemon.draining
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.default_int_handler)


def test_one_pool_serves_every_batch(tmp_path):
    """Two rounds, with a submit between them, share one warm pool."""
    daemon = make_daemon(tmp_path, jobs=2, batch=2)
    ids = [daemon.queue.submit(dict(SPEC, seed=seed))[0].job_id
           for seed in range(1, 4)]
    try:
        assert daemon.run_round() == 3
        ids += [daemon.queue.submit(dict(SPEC, seed=seed))[0].job_id
                for seed in range(4, 7)]
        assert daemon.run_round() == 3
    finally:
        daemon.pool.close()
        daemon.telemetry.close()
        daemon.spool.close()
    assert all(daemon.queue.get(i).state == "done" for i in ids)
    assert daemon.counters["rounds_total"] == 2
    assert daemon.counters["pool_spawns_total"] == 1
    assert daemon.health()["counters"]["pool_spawns_total"] == 1
    assert "repro_service_pool_spawns_total 1" in render_service(
        daemon.health())


def test_a_freed_worker_takes_a_job_submitted_mid_round(tmp_path):
    """A long job and a short one run first; a short job submitted once
    the first short one is done is leased and done while the long job
    still runs, in the same round."""
    daemon = make_daemon(tmp_path, jobs=2)
    long_job = daemon.queue.submit(
        dict(SPEC, scale=0.5, max_instructions=40_000))[0]
    short = daemon.queue.submit(dict(SPEC, seed=2))[0]
    submitted = []

    def client():
        queue = JobQueue(daemon.paths["wal"])
        deadline = time.monotonic() + 60
        while (queue.get(short.job_id).state != "done"
               and time.monotonic() < deadline):
            time.sleep(0.01)
            queue.poll()
        submitted.append(queue.submit(dict(SPEC, seed=3))[0].job_id)

    thread = threading.Thread(target=client)
    thread.start()
    try:
        settled = daemon.run_round()
    finally:
        thread.join()
        daemon.pool.close()
        daemon.telemetry.close()
        daemon.spool.close()
    late = submitted[0]
    assert settled == 3 and daemon.counters["rounds_total"] == 1
    ops = [(doc["op"], doc["job_id"]) for doc in
           (json.loads(raw) for raw
            in open(daemon.queue.path, "rb").read().splitlines())]
    assert ops.index(("done", short.job_id)) < ops.index(("lease", late))
    assert ops.index(("done", late)) < ops.index(("done", long_job.job_id))


def test_lease_expiry_keeps_running_while_a_round_streams(tmp_path):
    """A dead daemon's lease that runs out mid-round is expired, and its
    job leased and done, while the round's long job still runs.  The
    long job outlives its own 0.3 s lease, but the round holds it, so
    it is never expired."""
    daemon = make_daemon(tmp_path, jobs=2, batch=2, lease_seconds=0.3)
    stranded = daemon.queue.submit(dict(SPEC, seed=4))[0]
    daemon.queue.lease(owner=999, lease_seconds=0.5)  # a dead daemon's
    long_job = daemon.queue.submit(
        dict(SPEC, scale=0.5, max_instructions=40_000))[0]
    daemon.queue.submit(dict(SPEC, seed=2))
    try:
        settled = daemon.run_round()
    finally:
        daemon.pool.close()
        daemon.telemetry.close()
        daemon.spool.close()
    assert settled == 3 and daemon.counters["expired_total"] == 1
    ops = [(doc["op"], doc["job_id"]) for doc in
           (json.loads(raw) for raw
            in open(daemon.queue.path, "rb").read().splitlines())]
    assert (ops.index(("expire", stranded.job_id))
            < ops.index(("done", stranded.job_id))
            < ops.index(("done", long_job.job_id)))


def test_incremental_spool_fold_matches_a_fresh_fold(tmp_path):
    """The daemon's one telemetry session folds the spool batch by batch;
    the result must equal folding the whole spool at once."""
    daemon = make_daemon(tmp_path, jobs=2, batch=2)
    for seed in range(1, 6):
        daemon.queue.submit(dict(SPEC, seed=seed))
    daemon.run_forever()
    incremental = daemon.telemetry.aggregator
    incremental.poll()  # the daemon's stop events, written after its last pump
    fresh = SweepAggregator(daemon.paths["spool"])
    fresh.poll()

    def comparable(snapshot):
        snapshot["totals"].pop("elapsed")
        snapshot["points"] = {p["key"]: p for p in snapshot.pop("points")}
        return snapshot

    folded = comparable(incremental.snapshot())
    assert folded["totals"]["settled"] == 5
    assert folded == comparable(fresh.snapshot())


def _running(pid):
    """True while *pid* exists and is not a zombie (Linux procfs)."""
    try:
        with open("/proc/%d/stat" % pid) as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_warm_workers_die_with_a_sigkilled_daemon(tmp_path):
    """An idle warm pool must not outlive its daemon: its workers notice
    they were reparented and exit."""
    root = str(tmp_path / "svc")
    queue = JobQueue(service_paths(root)["wal"])
    ids = [queue.submit(dict(SPEC, seed=seed))[0].job_id
           for seed in range(1, 5)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               REPRO_CACHE_DIR=str(tmp_path / "cache"))
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", root, "--jobs", "2",
         "--batch", "4", "--poll-interval", "0.05", "--no-cache"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            queue.poll()
            if all(queue.get(i).state == "done" for i in ids):
                break
            time.sleep(0.05)
        assert all(queue.get(i).state == "done" for i in ids)
        spool = service_paths(root)["spool"]
        workers = [int(name[len("worker-"):-len(".jsonl")])
                   for name in os.listdir(spool)
                   if name.startswith("worker-")]
        assert workers and all(_running(pid) for pid in workers)
    finally:
        server.kill()  # the SIGKILL under test
        server.wait(timeout=30)
    deadline = time.monotonic() + 5.0
    while (any(_running(pid) for pid in workers)
           and time.monotonic() < deadline):
        time.sleep(0.1)
    orphans = [pid for pid in workers if _running(pid)]
    for pid in orphans:  # do not leak them past a failing test
        os.kill(pid, signal.SIGKILL)
    assert orphans == []
