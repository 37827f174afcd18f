"""The durable WAL job queue: transitions, dedup, torn tails, leases.

Everything here runs against real files — the WAL's crash-safety
properties (torn-tail replay, seal-before-append, cross-instance
convergence) are file-format properties, so the tests read and damage
the bytes directly.
"""

import json
import sys
import threading

import pytest

from repro.rel.inject import truncate_wal_tail
from repro.serve.queue import JobQueue, job_key, normalize_spec

SPEC = {"workload": "soplex", "variant": "cfd", "scale": 0.125,
        "max_instructions": 2000}


def make_queue(tmp_path, **kwargs):
    return JobQueue(str(tmp_path / "wal.jsonl"), **kwargs)


def spec_for(variant="cfd", **extra):
    spec = dict(SPEC, variant=variant)
    spec.update(extra)
    return spec


# ----------------------------------------------------------- identity


def test_normalize_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown job spec"):
        normalize_spec({"workload": "soplex", "tpyo": 1})


def test_normalize_requires_workload():
    with pytest.raises(ValueError, match="workload"):
        normalize_spec({"variant": "cfd"})


def test_job_key_is_content_hash_not_tenant():
    assert job_key(spec_for()) == job_key(spec_for())
    assert job_key(spec_for()) != job_key(spec_for(variant="base"))
    # defaults fill in: an explicit default and an omitted field agree
    assert job_key({"workload": "soplex", "variant": "cfd", "scale": 0.125,
                    "max_instructions": 2000, "seed": 1}) == job_key(SPEC)


# ----------------------------------------------------------- lifecycle


def test_submit_lease_complete_roundtrip(tmp_path):
    queue = make_queue(tmp_path)
    job, created, shed = queue.submit(SPEC)
    assert created and not shed
    assert job.state == "submitted"

    leased = queue.lease(owner=1234, limit=4)
    assert [j.job_id for j in leased] == [job.job_id]
    assert queue.get(job.job_id).state == "leased"
    assert queue.get(job.job_id).attempts == 1

    assert queue.complete(job.job_id, {"answer": 42}, seconds=1.5)
    done = queue.get(job.job_id)
    assert done.state == "done"
    assert done.result == {"answer": 42}
    assert done.seconds == 1.5
    assert queue.counts()["depth"] == 0


def test_duplicate_submit_dedups_onto_one_job(tmp_path):
    queue = make_queue(tmp_path)
    first, created, _ = queue.submit(SPEC, tenant="alice")
    second, created2, _ = queue.submit(SPEC, tenant="bob")
    assert created and not created2
    assert second.job_id == first.job_id
    assert second.submits == 2
    assert queue.counts()["total"] == 1
    # a done job still dedups: the second client gets the result for free
    queue.lease(owner=1)
    queue.complete(first.job_id, {"x": 1})
    again, created3, _ = queue.submit(SPEC)
    assert not created3 and again.state == "done"


def test_duplicate_completion_first_writer_wins(tmp_path):
    queue = make_queue(tmp_path)
    job, _, _ = queue.submit(SPEC)
    queue.lease(owner=1)
    assert queue.complete(job.job_id, {"winner": 1})
    assert not queue.complete(job.job_id, {"winner": 2})
    assert not queue.fail(job.job_id, "too late")
    assert queue.get(job.job_id).result == {"winner": 1}


def test_max_depth_sheds_new_jobs_but_not_duplicates(tmp_path):
    queue = make_queue(tmp_path)
    job, created, shed = queue.submit(SPEC, max_depth=1)
    assert created
    none_job, created2, shed2 = queue.submit(
        spec_for(variant="base"), max_depth=1)
    assert none_job is None and not created2 and shed2
    # the shed submit wrote nothing durable
    fresh = make_queue(tmp_path)
    assert fresh.counts()["total"] == 1
    # a duplicate of an existing job is never shed: it adds no work
    dup, _, shed3 = queue.submit(SPEC, max_depth=0)
    assert dup.job_id == job.job_id and not shed3


def test_release_returns_lease_to_submitted(tmp_path):
    queue = make_queue(tmp_path)
    job, _, _ = queue.submit(SPEC)
    queue.lease(owner=1)
    assert queue.release(job.job_id)
    assert queue.get(job.job_id).state == "submitted"
    assert not queue.release(job.job_id)  # not leased any more


# ----------------------------------------------------------- leases


def test_expired_lease_returns_job_to_queue(tmp_path):
    queue = make_queue(tmp_path)
    job, _, _ = queue.submit(SPEC)
    queue.lease(owner=1, lease_seconds=0.0)
    assert queue.expire_leases() == [job.job_id]
    assert queue.get(job.job_id).state == "submitted"
    # an unexpired lease is left alone
    queue.lease(owner=1, lease_seconds=300.0)
    assert queue.expire_leases() == []


def test_crash_looping_job_goes_dead(tmp_path):
    queue = make_queue(tmp_path, max_lease_attempts=2)
    job, _, _ = queue.submit(SPEC)
    for expected_state in ("submitted", "dead"):
        queue.lease(owner=1, lease_seconds=0.0)
        queue.expire_leases()
        assert queue.get(job.job_id).state == expected_state
    assert "lease expired" in queue.get(job.job_id).error
    assert queue.lease(owner=1) == []  # dead jobs are never re-leased


def test_lease_round_robin_is_fair_across_tenants(tmp_path):
    queue = make_queue(tmp_path)
    for index in range(3):
        queue.submit(spec_for(seed=10 + index), tenant="flooder")
    queue.submit(spec_for(seed=99), tenant="quiet")
    leased = queue.lease(owner=1, limit=2)
    assert sorted(j.tenant for j in leased) == ["flooder", "quiet"]


def test_lease_admit_hook_skips_tenant_without_burning_attempt(tmp_path):
    queue = make_queue(tmp_path)
    job, _, _ = queue.submit(SPEC)
    assert queue.lease(owner=1, admit=lambda j: False) == []
    fresh = queue.get(job.job_id)
    assert fresh.state == "submitted" and fresh.attempts == 0


# ----------------------------------------------------------- durability


def test_two_instances_converge_through_the_file(tmp_path):
    writer = make_queue(tmp_path)
    reader = make_queue(tmp_path)
    job, _, _ = writer.submit(SPEC)
    reader.poll()
    assert reader.get(job.job_id).state == "submitted"
    writer.lease(owner=7)
    writer.complete(job.job_id, {"v": 1})
    reader.poll()
    assert reader.get(job.job_id).state == "done"


def test_torn_tail_mid_record_replays_n_minus_one(tmp_path):
    queue = make_queue(tmp_path)
    job, _, _ = queue.submit(SPEC)
    queue.lease(owner=1)
    removed = truncate_wal_tail(queue.path, mode="mid-record")
    assert removed > 0
    replayed = make_queue(tmp_path)
    # the lease line was torn: the job is back to its submitted state
    assert replayed.get(job.job_id).state == "submitted"


def test_torn_tail_mid_utf8_replays_n_minus_one(tmp_path):
    queue = make_queue(tmp_path)
    job, _, _ = queue.submit(SPEC)
    queue.lease(owner=1)
    truncate_wal_tail(queue.path, mode="mid-utf8")
    replayed = make_queue(tmp_path)  # must not raise UnicodeDecodeError
    assert replayed.get(job.job_id).state == "submitted"


def test_append_after_torn_tail_seals_the_damage(tmp_path):
    queue = make_queue(tmp_path)
    job, _, _ = queue.submit(SPEC)
    truncate_wal_tail(queue.path, mode="mid-record")
    # the torn line was the submit; a fresh instance re-accepts and the
    # sealed tail never merges with the new record
    fresh = make_queue(tmp_path)
    resubmitted, created, _ = fresh.submit(SPEC)
    assert created and resubmitted.job_id == job.job_id
    final = make_queue(tmp_path)
    assert final.get(job.job_id).state == "submitted"
    assert final.counts()["total"] == 1


def test_long_lived_queue_seals_a_tail_torn_by_another_writer(tmp_path):
    """A WAL-direct submit dying mid-append while the daemon stays live
    must not cost the daemon its next record: the seal runs before
    every append, not once per instance."""
    daemon = make_queue(tmp_path)
    job, _, _ = daemon.submit(SPEC)
    daemon.lease(owner=1)
    make_queue(tmp_path).submit(spec_for(variant="base"))
    truncate_wal_tail(daemon.path, mode="mid-record")
    assert daemon.complete(job.job_id, {"v": 1})
    assert make_queue(tmp_path).get(job.job_id).state == "done"
    assert daemon.get(job.job_id).state == "done"


def test_orphan_transition_lines_are_ignored(tmp_path):
    queue = make_queue(tmp_path)
    with open(queue.path, "a") as fh:
        fh.write(json.dumps({"v": 1, "op": "done", "job_id": "ghost",
                             "payload": {}}) + "\n")
        fh.write(json.dumps({"v": 99, "op": "submit", "job_id": "future",
                             "spec": {}}) + "\n")
        fh.write("not json at all\n")
    queue.poll()
    assert queue.counts()["total"] == 0


def test_wal_records_supervision_knobs(tmp_path):
    queue = make_queue(tmp_path)
    job, _, _ = queue.submit(SPEC)
    queue.lease(owner=1)
    queue.complete(job.job_id, {"x": 1},
                   supervision={"timeout": 5.0, "retries": 2})
    lines = [json.loads(raw) for raw
             in open(queue.path, "rb").read().splitlines()]
    done = [doc for doc in lines if doc.get("op") == "done"]
    assert done[0]["supervision"] == {"timeout": 5.0, "retries": 2}


# --------------------------------------------------------- threads


def test_threads_sharing_a_queue_lose_no_record(tmp_path):
    """The daemon's loop polls the queue its HTTP handler threads submit
    into; a poll racing a submit must neither drop nor double-read a
    record, nor make the submit miss the job it just wrote."""
    queue = make_queue(tmp_path)
    stop = threading.Event()
    errors = []

    def guarded(fn, *args):
        def run():
            try:
                fn(*args)
            except Exception as exc:  # reported below, not lost
                errors.append(repr(exc))
        return run

    def poll():
        while not stop.is_set():
            queue.poll()
            queue.counts()

    def submit(first):
        for seed in range(first, first + 60):
            queue.submit(spec_for(seed=seed))

    pollers = [threading.Thread(target=guarded(poll)) for _ in range(2)]
    submitters = [threading.Thread(target=guarded(submit, first))
                  for first in (0, 1000)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in pollers + submitters:
            thread.start()
        for thread in submitters:
            thread.join(timeout=60)
    finally:
        stop.set()
        for thread in pollers:
            thread.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in pollers + submitters)
    assert errors == []
    assert queue.counts()["submitted"] == 120
    assert queue.counts() == make_queue(tmp_path).counts()
