"""Supervised-sweep behaviour: identity, resume, bounded retries, and the
worker-fault recovery paths (``-m faultinject``).

The supervision layer must be invisible when nothing goes wrong (stats
byte-identical to an inline run), and when something does go wrong — a
SIGKILLed worker, a hung point, a crashed sweep — the outcome must be
either a bit-identical recovered result or an attributed failure, never
a silent loss.
"""

import json
import os

import pytest

from repro.obs.telemetry import SweepAggregator
from repro.perf import ResultCache, SweepPoint
from repro.rel import (
    SupervisionPolicy,
    WorkerPool,
    arm_worker_fault,
    disarm_worker_fault,
    run_supervised_sweep,
)


def _points(n=2):
    all_points = [
        SweepPoint(workload="astar_r1", variant="base", input_name="Rivers",
                   scale=0.125, max_instructions=2000),
        SweepPoint(workload="soplex", variant="cfd", input_name="ref",
                   scale=0.125, max_instructions=2000),
        SweepPoint(workload="astar_r1", variant="dfd", input_name="Rivers",
                   scale=0.125, max_instructions=2000),
    ]
    return all_points[:n]


def _stats_blobs(outcomes):
    return [
        json.dumps(o.result.stats.to_dict(), sort_keys=True)
        for o in outcomes
    ]


def test_supervised_pool_matches_plain_serial_sweep(tmp_path):
    plain = run_supervised_sweep(_points(), jobs=1)
    policy = SupervisionPolicy(journal_path=str(tmp_path / "journal.jsonl"))
    supervised = run_supervised_sweep(_points(), jobs=2, policy=policy)
    assert all(o.ok for o in supervised)
    assert _stats_blobs(supervised) == _stats_blobs(plain)
    assert [o.attempts for o in supervised] == [1, 1]
    assert all(o.worker_pid and o.worker_pid != os.getpid()
               for o in supervised)
    assert not any(o.timed_out or o.resumed or o.degraded
                   for o in plain + supervised)


def test_resume_runs_exactly_the_missing_points(tmp_path):
    # The journal lands in REPRO_REL_ARTIFACT_DIR when set so CI can
    # upload it as a build artifact; tmp_path otherwise.
    artifact_dir = os.environ.get("REPRO_REL_ARTIFACT_DIR") or str(tmp_path)
    os.makedirs(artifact_dir, exist_ok=True)
    journal = os.path.join(artifact_dir, "sweep_resume_journal.jsonl")
    if os.path.exists(journal):
        os.remove(journal)

    # "Interrupted" sweep: only k of the n points complete and journal.
    k, n = 1, 3
    first = run_supervised_sweep(
        _points(k), jobs=1, policy=SupervisionPolicy(journal_path=journal)
    )
    assert all(o.ok and not o.resumed for o in first)

    resumed = run_supervised_sweep(
        _points(n), jobs=1,
        policy=SupervisionPolicy(journal_path=journal, resume=True),
    )
    assert all(o.ok for o in resumed)
    assert [o.resumed for o in resumed] == [True, False, False]
    fresh = [o for o in resumed if not o.resumed]
    assert len(fresh) == n - k
    assert all(o.attempts == 1 for o in fresh)
    # The journal-served result is the one the interrupted run computed.
    assert _stats_blobs(resumed[:k]) == _stats_blobs(first)

    # A third run is now a pure resume: zero simulations.
    third = run_supervised_sweep(
        _points(n), jobs=1,
        policy=SupervisionPolicy(journal_path=journal, resume=True),
    )
    assert all(o.ok and o.resumed and o.attempts == 0 for o in third)
    assert _stats_blobs(third) == _stats_blobs(resumed)


def test_journal_tolerates_a_truncated_tail(tmp_path):
    journal = str(tmp_path / "journal.jsonl")
    run_supervised_sweep(
        _points(2), jobs=1, policy=SupervisionPolicy(journal_path=journal)
    )
    with open(journal) as fh:
        lines = fh.readlines()
    # Crash shape: the final append got half-written.
    with open(journal, "w") as fh:
        fh.writelines(lines[:-1])
        fh.write(lines[-1][: len(lines[-1]) // 2])
    resumed = run_supervised_sweep(
        _points(2), jobs=1,
        policy=SupervisionPolicy(journal_path=journal, resume=True),
    )
    assert all(o.ok for o in resumed)
    assert [o.resumed for o in resumed] == [True, False]


def test_journal_tolerates_a_tail_torn_mid_utf8(tmp_path):
    """The crash can land inside a multi-byte UTF-8 sequence, not just
    mid-record: the loader must replay the n-1 complete entries and
    never raise UnicodeDecodeError."""
    from repro.rel.inject import truncate_wal_tail

    journal = str(tmp_path / "journal.jsonl")
    run_supervised_sweep(
        _points(2), jobs=1, policy=SupervisionPolicy(journal_path=journal)
    )
    truncate_wal_tail(journal, mode="mid-utf8")
    resumed = run_supervised_sweep(
        _points(2), jobs=1,
        policy=SupervisionPolicy(journal_path=journal, resume=True),
    )
    assert all(o.ok for o in resumed)
    assert [o.resumed for o in resumed] == [True, False]


def test_resume_after_a_torn_tail_keeps_the_next_recorded_point(tmp_path):
    """The resumed sweep's first record is sealed off from the torn
    bytes instead of glued onto them, so a second resume simulates
    nothing."""
    from repro.rel.inject import truncate_wal_tail

    journal = str(tmp_path / "journal.jsonl")
    policy = SupervisionPolicy(journal_path=journal, resume=True)
    run_supervised_sweep(_points(2), jobs=1, policy=policy)
    truncate_wal_tail(journal, mode="mid-record")
    resumed = run_supervised_sweep(_points(3), jobs=1, policy=policy)
    assert [o.resumed for o in resumed] == [True, False, False]
    again = run_supervised_sweep(_points(3), jobs=1, policy=policy)
    assert all(o.ok and o.resumed for o in again)


def test_error_retries_are_bounded_and_attributed():
    policy = SupervisionPolicy(retries=2, backoff=0.0)
    outcomes = run_supervised_sweep(
        [SweepPoint(workload="no-such-workload")], jobs=1, policy=policy
    )
    (outcome,) = outcomes
    assert not outcome.ok
    assert outcome.attempts == policy.retries + 1
    assert "no-such-workload" in outcome.error
    assert "Traceback" in outcome.error  # full traceback, not just repr
    assert outcome.worker_pid == os.getpid()  # inline path


def test_pool_error_carries_worker_pid():
    points = [_points(1)[0], SweepPoint(workload="no-such-workload")]
    policy = SupervisionPolicy(retries=0)
    outcomes = run_supervised_sweep(points, jobs=2, policy=policy)
    assert outcomes[0].ok
    bad = outcomes[1]
    assert not bad.ok and bad.attempts == 1
    assert "no-such-workload" in bad.error and "Traceback" in bad.error
    assert bad.worker_pid and bad.worker_pid != os.getpid()


def test_progress_callback_sees_every_point():
    seen = []
    run_supervised_sweep(
        _points(2), jobs=1,
        progress=lambda outcome, done, total: seen.append((done, total)),
    )
    assert sorted(seen) == [(1, 2), (2, 2)]


@pytest.mark.parametrize("jobs", [1, 2])
def test_refill_streams_points_in_arrival_order(jobs):
    """A sweep seeded with one point and refilled with three more, one
    per call, returns all four in arrival order, byte-identical to a
    plain sweep of the same points."""
    def four():
        return _points(3) + [SweepPoint(
            workload="soplex", variant="base", input_name="ref",
            scale=0.125, max_instructions=2000)]

    plain = run_supervised_sweep(four(), jobs=1)
    later = four()
    seed = [later.pop(0)]
    calls = []

    def refill():
        calls.append(len(later))
        return [later.pop(0)] if later else []

    streamed = run_supervised_sweep(seed, jobs=jobs, refill=refill)
    assert [o.point.label() for o in streamed] == [
        p.label() for p in four()]
    assert all(o.ok for o in streamed)
    assert _stats_blobs(streamed) == _stats_blobs(plain)
    assert calls[-1] == 0  # the sweep ended on an empty refill


class _ScriptedPool:
    """A stand-in pool whose futures finish at submit, as scripted: a
    point's real result, or ``BrokenProcessPool``."""

    jobs = 2
    live = True

    def __init__(self, script):
        self.script = list(script)
        self.ran = []

    def executor(self):
        return self

    def submit(self, _fn, point, *_args):
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        from repro.perf.sweep import _simulate_point

        future = Future()
        if self.script.pop(0) == "die":
            future.set_exception(BrokenProcessPool("worker died"))
        else:
            self.ran.append(point.label())
            future.set_result(_simulate_point(point))
        return future

    def discard(self, kill=False):
        pass


def test_results_finished_before_a_pool_break_are_kept():
    """One point finishes and the other's worker dies in the same
    collection: the finished result settles, only the other re-runs."""
    pool = _ScriptedPool(["ok", "die", "ok"])
    outcomes = run_supervised_sweep(
        _points(), jobs=2, pool=pool,
        policy=SupervisionPolicy(backoff=0.01),
    )
    assert all(o.ok for o in outcomes)
    assert [o.attempts for o in outcomes] == [1, 2]
    assert pool.ran == [p.label() for p in _points()]
    assert _stats_blobs(outcomes) == _stats_blobs(
        run_supervised_sweep(_points(), jobs=1))


def test_success_records_seconds_and_journal_carries_them(tmp_path):
    journal = str(tmp_path / "journal.jsonl")
    outcomes = run_supervised_sweep(
        _points(2), jobs=2, policy=SupervisionPolicy(journal_path=journal)
    )
    assert all(o.ok and o.seconds > 0 and o.attempts == 1 for o in outcomes)
    with open(journal) as fh:
        docs = [json.loads(line) for line in fh]
    points = [d for d in docs if d["kind"] == "point"]
    assert len(points) == 2
    for doc in points:
        assert doc["seconds"] > 0
        assert doc["attempts"] == 1
        assert doc["elapsed"] > 0
    # A resumed outcome replays the journaled timing instead of zeroes.
    resumed = run_supervised_sweep(
        _points(2), jobs=1,
        policy=SupervisionPolicy(journal_path=journal, resume=True),
    )
    assert all(o.resumed and o.seconds > 0 and o.attempts == 0
               for o in resumed)


# ------------------------------------------------ where the cache is probed


def test_live_pool_parent_builds_no_workload(tmp_path, monkeypatch):
    """Once the pool is live, its workers probe and fill the cache: the
    parent builds nothing, and misses and hits both match inline."""
    import repro.perf.sweep as sweep

    inline = run_supervised_sweep(_points(), jobs=1)
    parent = os.getpid()
    builds = []
    real_build = sweep._build_point

    def counting_build(point):
        if os.getpid() == parent:  # workers forked later inherit this
            builds.append(point.label())
        return real_build(point)

    cache = ResultCache(root=str(tmp_path / "cache"))
    pool = WorkerPool(2)
    try:
        run_supervised_sweep(_points(1), jobs=2, pool=pool)
        assert pool.live
        monkeypatch.setattr(sweep, "_build_point", counting_build)
        fresh = run_supervised_sweep(_points(), jobs=2, cache=cache,
                                     pool=pool)
        served = run_supervised_sweep(_points(), jobs=2, cache=cache,
                                      pool=pool)
    finally:
        pool.close()
    assert builds == []
    assert pool.spawns == 1
    assert all(o.ok and not o.cached and o.cache_key for o in fresh)
    assert all(o.ok and o.cached for o in served)
    assert [o.cache_key for o in served] == [o.cache_key for o in fresh]
    assert _stats_blobs(fresh) == _stats_blobs(inline)
    assert _stats_blobs(served) == _stats_blobs(inline)


def test_fully_cached_one_shot_sweep_forks_no_pool(tmp_path, monkeypatch):
    cache = ResultCache(root=str(tmp_path / "cache"))
    run_supervised_sweep(_points(), jobs=1, cache=cache)
    forks = []
    monkeypatch.setattr(WorkerPool, "executor",
                        lambda self: forks.append(self))
    outcomes = run_supervised_sweep(_points(), jobs=2, cache=cache)
    assert all(o.ok and o.cached for o in outcomes)
    assert forks == []


def test_inline_sweep_probes_each_point_once(tmp_path):
    """Inline, the point's own build is the only probe: one load per
    point, and hits keep the hit outcome shape."""
    cache = ResultCache(root=str(tmp_path / "cache"))
    fresh = run_supervised_sweep(_points(), jobs=1, cache=cache)
    assert cache.counters()["misses"] == 2
    assert cache.counters()["stores"] == 2
    served = run_supervised_sweep(_points(), jobs=1, cache=cache)
    assert cache.counters()["misses"] == 2
    assert cache.counters()["hits"] == 2
    assert all(o.ok and not o.cached and o.cache_key for o in fresh)
    assert all(o.ok and o.cached and o.attempts == 0 and o.seconds == 0.0
               and o.worker_pid is None for o in served)
    assert [o.cache_key for o in served] == [o.cache_key for o in fresh]
    assert _stats_blobs(served) == _stats_blobs(fresh)


def test_worker_cache_hits_keep_the_hit_outcome_shape(tmp_path):
    """Hits found in workers look like the parent's: no attempts, no
    seconds, no pid, one ``cache_hit`` event each, no journal line."""
    cache = ResultCache(root=str(tmp_path / "cache"))
    journal = tmp_path / "journal.jsonl"
    spool = str(tmp_path / "spool")
    pool = WorkerPool(2)
    try:
        run_supervised_sweep(_points(), jobs=2, cache=cache, pool=pool)
        assert pool.live  # so the parent leaves every probe to the workers
        outcomes = run_supervised_sweep(
            _points(), jobs=2, cache=cache, pool=pool, telemetry=spool,
            policy=SupervisionPolicy(journal_path=str(journal)),
        )
    finally:
        pool.close()
    assert all(o.ok and o.cached and o.attempts == 0 and o.seconds == 0.0
               and o.worker_pid is None for o in outcomes)
    agg = SweepAggregator(spool)
    agg.poll()
    assert agg.counters["cache_hits"] == 2
    assert agg.snapshot()["totals"]["by_status"] == {"cached": 2}
    with open(journal) as fh:
        assert [json.loads(line)["kind"] for line in fh] == ["header"]


def test_build_failure_with_cache_is_retried_in_the_worker(tmp_path):
    cache = ResultCache(root=str(tmp_path / "cache"))
    points = [_points(1)[0], SweepPoint(workload="no-such-workload")]
    outcomes = run_supervised_sweep(
        points, jobs=2, cache=cache,
        policy=SupervisionPolicy(retries=1, backoff=0.0),
    )
    assert outcomes[0].ok and outcomes[0].cache_key
    bad = outcomes[1]
    assert not bad.ok and bad.attempts == 2
    assert "no-such-workload" in bad.error and bad.cache_key is None
    assert bad.worker_pid and bad.worker_pid != os.getpid()


def test_worker_resources_recorded_with_telemetry(tmp_path):
    outcomes = run_supervised_sweep(
        _points(2), jobs=2, telemetry=str(tmp_path / "spool")
    )
    assert all(o.ok for o in outcomes)
    for outcome in outcomes:
        assert outcome.resources is not None
        assert outcome.resources["wall_seconds"] > 0
        assert outcome.resources["maxrss_kb"] > 0


# ------------------------------------------------------------ fault paths


@pytest.mark.faultinject
def test_sigkilled_worker_recovers_bit_identical(tmp_path):
    baseline = run_supervised_sweep(_points(), jobs=1)
    arm_worker_fault(os.environ, "kill", str(tmp_path / "kill.token"))
    try:
        outcomes = run_supervised_sweep(
            _points(), jobs=2,
            policy=SupervisionPolicy(retries=2, backoff=0.01),
        )
    finally:
        disarm_worker_fault(os.environ)
    assert os.path.exists(str(tmp_path / "kill.token"))  # fault did fire
    assert all(o.ok for o in outcomes)
    assert any(o.attempts > 1 for o in outcomes)  # someone was re-run
    assert _stats_blobs(outcomes) == _stats_blobs(baseline)


@pytest.mark.faultinject
def test_hung_worker_is_killed_and_retried(tmp_path):
    baseline = run_supervised_sweep(_points(), jobs=1)
    arm_worker_fault(os.environ, "hang:120", str(tmp_path / "hang.token"))
    try:
        outcomes = run_supervised_sweep(
            _points(), jobs=2,
            policy=SupervisionPolicy(timeout=3.0, retries=2, backoff=0.01),
        )
    finally:
        disarm_worker_fault(os.environ)
    assert all(o.ok for o in outcomes)
    assert any(o.attempts > 1 for o in outcomes)
    assert _stats_blobs(outcomes) == _stats_blobs(baseline)


@pytest.mark.faultinject
def test_hung_worker_without_retries_reports_timeout(tmp_path):
    arm_worker_fault(os.environ, "hang:120", str(tmp_path / "hang.token"))
    try:
        outcomes = run_supervised_sweep(
            _points(), jobs=2,
            policy=SupervisionPolicy(timeout=2.0, retries=0),
        )
    finally:
        disarm_worker_fault(os.environ)
    timed = [o for o in outcomes if o.timed_out]
    assert len(timed) == 1
    assert not timed[0].ok
    assert "timed out" in timed[0].error
    assert all(o.ok for o in outcomes if not o.timed_out)


def _two_trace_groups():
    """Sampled points in two warm-trace groups: astar at two machine
    sizes, and soplex."""
    from repro.core import sandy_bridge_config
    from repro.core.config import scale_window

    plan = "interval=200,warmup=50,period=5000,head=300,tail=300"
    return [
        SweepPoint(workload="astar_r1", variant="base", input_name="Rivers",
                   config=scale_window(sandy_bridge_config(), rob),
                   scale=0.125, max_instructions=30_000, sampling=plan)
        for rob in (64, 128)
    ] + [
        SweepPoint(workload="soplex", variant="cfd", input_name="ref",
                   scale=0.125, max_instructions=30_000, sampling=plan),
    ]


@pytest.mark.faultinject
def test_sigkilled_worker_recovers_with_held_trace_groups(tmp_path):
    from repro.perf.tracestore import TraceStore

    baseline = run_supervised_sweep(_two_trace_groups(), jobs=1)
    store = TraceStore(root=str(tmp_path / "traces"))
    arm_worker_fault(os.environ, "kill", str(tmp_path / "kill.token"))
    try:
        outcomes = run_supervised_sweep(
            _two_trace_groups(), jobs=2, trace_store=store,
            policy=SupervisionPolicy(retries=2, backoff=0.01),
        )
    finally:
        disarm_worker_fault(os.environ)
    assert os.path.exists(str(tmp_path / "kill.token"))
    assert all(o.ok for o in outcomes)
    assert any(o.attempts > 1 for o in outcomes)
    assert _stats_blobs(outcomes) == _stats_blobs(baseline)
    assert store.counters()["stores"] == 2
    assert all(o.trace["source"] == "hit" for o in outcomes)


@pytest.mark.faultinject
def test_degraded_sweep_records_held_groups_before_their_points(
        tmp_path, monkeypatch):
    """A full-detail point goes to the pool at once and its worker dies
    while the groups are held; with no respawns allowed, every point
    then runs inline, each group's trace recorded before its points."""
    import repro.rel.supervise as supervise
    from repro.perf.tracestore import TraceStore

    def points():
        return _points(1) + _two_trace_groups()

    baseline = run_supervised_sweep(points(), jobs=1)
    parent = os.getpid()
    recorded, ran = set(), []
    real_prewarm = supervise.prewarm_traces
    real_simulate = supervise._simulate_point

    def prewarm(group, *args, **kwargs):
        recorded.update(id(point) for point in group)
        return real_prewarm(group, *args, **kwargs)

    def simulate(point, *args):
        if os.getpid() == parent:
            ran.append(point.sampling is None or id(point) in recorded)
        return real_simulate(point, *args)

    monkeypatch.setattr(supervise, "prewarm_traces", prewarm)
    monkeypatch.setattr(supervise, "_simulate_point", simulate)
    store = TraceStore(root=str(tmp_path / "traces"))
    arm_worker_fault(os.environ, "kill", str(tmp_path / "kill.token"))
    try:
        outcomes = run_supervised_sweep(
            points(), jobs=2, trace_store=store,
            policy=SupervisionPolicy(max_pool_respawns=0, backoff=0.01),
        )
    finally:
        disarm_worker_fault(os.environ)
    assert os.path.exists(str(tmp_path / "kill.token"))
    assert all(o.ok for o in outcomes)
    assert any(o.degraded for o in outcomes)
    assert _stats_blobs(outcomes) == _stats_blobs(baseline)
    assert ran and all(ran)
    assert store.counters()["stores"] == 2


@pytest.mark.faultinject
def test_hung_worker_with_held_trace_groups_is_killed_and_retried(tmp_path):
    baseline = run_supervised_sweep(_two_trace_groups(), jobs=1)
    arm_worker_fault(os.environ, "hang:120", str(tmp_path / "hang.token"))
    try:
        outcomes = run_supervised_sweep(
            _two_trace_groups(), jobs=2,
            trace_store=str(tmp_path / "traces"),
            policy=SupervisionPolicy(timeout=3.0, retries=2, backoff=0.01),
        )
    finally:
        disarm_worker_fault(os.environ)
    assert all(o.ok for o in outcomes)
    assert any(o.attempts > 1 for o in outcomes)
    assert _stats_blobs(outcomes) == _stats_blobs(baseline)


# ------------------------------------------------------------- sampled


def _sampled_point():
    return SweepPoint(workload="bzip2", variant="tq", input_name="chicken",
                      scale=0.25, max_instructions=20_000,
                      sampling="interval=400,warmup=100,period=2000,"
                               "head=500,tail=500")


def test_point_key_covers_sampling():
    from repro.rel.supervise import point_key

    full = _sampled_point()
    full.sampling = None
    sampled = _sampled_point()
    other = _sampled_point()
    other.sampling = "interval=500,warmup=100,period=2000,head=500,tail=500"
    keys = {point_key(full), point_key(sampled), point_key(other)}
    assert len(keys) == 3


def test_sampled_point_resumes_from_its_own_journal_entry(tmp_path):
    journal = str(tmp_path / "journal.jsonl")
    policy = SupervisionPolicy(journal_path=journal, resume=True)
    [first] = run_supervised_sweep([_sampled_point()], jobs=1, policy=policy)
    assert first.ok and not first.resumed
    assert first.result.sampling["intervals"] >= 1
    [resumed] = run_supervised_sweep([_sampled_point()], jobs=1,
                                     policy=policy)
    assert resumed.resumed
    assert resumed.result.sampling == first.result.sampling
    assert json.dumps(resumed.result.stats.to_dict(), sort_keys=True) == \
        json.dumps(first.result.stats.to_dict(), sort_keys=True)
    # The full-detail twin must NOT be served from the sampled entry.
    full = _sampled_point()
    full.sampling = None
    [fresh] = run_supervised_sweep([full], jobs=1, policy=policy)
    assert not fresh.resumed
    assert fresh.result.sampling is None
