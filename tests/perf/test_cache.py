"""Persistent result-cache correctness.

The cache is sound only if (a) a rehydrated entry is indistinguishable
from the live run it snapshotted, (b) the key covers every input that
can change the result (program, config, budgets, schema version), and
(c) a damaged entry silently misses instead of poisoning a figure.
"""

import json

import pytest

from repro.core import sandy_bridge_config, simulate
from repro.isa import assemble
from repro.perf import CachedSimResult, ResultCache, program_digest, result_key

_LOOP = """
.text
main:
    addi r1, r0, 50
    addi r2, r0, 0
loop:
    addi r2, r2, 3
    addi r1, r1, -1
    bne  r1, r0, loop
    halt
"""


@pytest.fixture
def program():
    return assemble(_LOOP, name="cache-loop")


@pytest.fixture
def cache(tmp_path):
    return ResultCache(root=str(tmp_path))


def _stats_json(result):
    return json.dumps(result.stats.to_dict(), sort_keys=True)


def test_cached_vs_fresh_identical(program, cache):
    config = sandy_bridge_config()
    live = simulate(program, config)
    key = cache.key_for(program, config)
    cache.store_result(key, live)

    cached = cache.load(key, config=config)
    assert isinstance(cached, CachedSimResult)
    assert _stats_json(cached) == _stats_json(live)
    assert cached.stats.retired == live.stats.retired
    assert cached.stats.cycles == live.stats.cycles
    assert cached.energy.total_pj == pytest.approx(live.energy.total_pj)
    assert cached.mshr_histogram() == live.mshr_histogram()
    assert cached.metrics_snapshot() == live.metrics_snapshot()
    assert cached.summary() == live.summary()


def test_key_covers_config(program):
    base = sandy_bridge_config()
    bigger_rob = sandy_bridge_config(rob_size=base.rob_size * 2)
    assert result_key(program, base) != result_key(program, bigger_rob)


def test_key_covers_program(program):
    other = assemble(_LOOP.replace("addi r2, r2, 3", "addi r2, r2, 4"),
                     name="cache-loop")
    config = sandy_bridge_config()
    assert program_digest(program) != program_digest(other)
    assert result_key(program, config) != result_key(other, config)


def test_key_ignores_display_metadata(program):
    renamed = assemble(_LOOP, name="completely-different-name")
    assert program_digest(program) == program_digest(renamed)


def test_key_covers_budgets(program):
    config = sandy_bridge_config()
    assert (result_key(program, config, max_instructions=100)
            != result_key(program, config, max_instructions=200))
    assert (result_key(program, config, warmup_instructions=0)
            != result_key(program, config, warmup_instructions=50))


def test_key_covers_schema_version(program, tmp_path):
    config = sandy_bridge_config()
    v1 = ResultCache(root=str(tmp_path), schema_version=1)
    v2 = ResultCache(root=str(tmp_path), schema_version=2)
    assert v1.key_for(program, config) != v2.key_for(program, config)
    # An entry stored under one schema is invisible to the other.
    live = simulate(program, config)
    v1.store_result(v1.key_for(program, config), live)
    assert v2.load(v2.key_for(program, config), config=config) is None


def test_corrupt_entry_is_recomputed(program, cache):
    config = sandy_bridge_config()
    live = simulate(program, config)
    key = cache.key_for(program, config)
    cache.store_result(key, live)

    # Truncated JSON, valid JSON of the wrong shape, wrong schema number:
    # all must read as misses, and a fresh store must recover the entry.
    path = cache.path_for(key)
    for garbage in ('{"stats": {', '{"unexpected": 1}', '{"schema": 999}'):
        with open(path, "w") as fh:
            fh.write(garbage)
        assert cache.load(key, config=config) is None
        cache.store_result(key, live)
        recovered = cache.load(key, config=config)
        assert recovered is not None
        assert _stats_json(recovered) == _stats_json(live)


def test_missing_entry_is_a_miss(cache, program):
    config = sandy_bridge_config()
    assert cache.load(cache.key_for(program, config), config=config) is None
    assert cache.counters()["misses"] == 1
    assert cache.counters()["quarantined"] == 0  # absent != damaged


def test_corrupt_entry_is_quarantined_for_inspection(program, cache):
    import os

    config = sandy_bridge_config()
    key = cache.key_for(program, config)
    cache.store_result(key, simulate(program, config))
    path = cache.path_for(key)
    with open(path, "w") as fh:
        fh.write('{"stats": {')
    assert cache.load(key, config=config) is None
    assert cache.counters()["quarantined"] == 1
    assert not os.path.exists(path)  # moved aside, not left to re-trip
    with open(path + ".corrupt") as fh:
        assert fh.read() == '{"stats": {'  # damaged bytes preserved


def test_non_object_entry_is_a_quarantined_miss(program, cache):
    import os

    config = sandy_bridge_config()
    key = cache.key_for(program, config)
    path = cache.path_for(key)
    for garbage in ("[1, 2]", '"text"', "7", "null"):
        cache.store_result(key, simulate(program, config))
        with open(path, "w") as fh:
            fh.write(garbage)
        assert cache.load(key, config=config) is None
        assert not os.path.exists(path)
        with open(path + ".corrupt") as fh:
            assert fh.read() == garbage
    assert cache.counters()["quarantined"] == 4


def _hammer_store(root, key, payload, rounds):
    """Cross-process stress worker: must be module-level (pickled)."""
    cache = ResultCache(root=root)
    for _ in range(rounds):
        assert cache.store(key, payload) is not None
    counters = cache.counters()
    # every call settled one way or the other, none silently dropped
    assert counters["stores"] + counters["deduped"] == rounds
    return counters["stores"]


def test_concurrent_writers_never_corrupt_an_entry(program, cache):
    """Satellite: many processes storing the same key under the flock
    write lock must leave a loadable entry (no interleaved tempfile /
    rename pairs), with zero quarantines.  With duplicate-submit dedup,
    exactly ONE of the 100 store calls across the 4 processes performs
    the write — the first to take the lock — and every later call finds
    the winner's complete entry and skips."""
    import multiprocessing

    from repro.perf.cache import snapshot_result

    config = sandy_bridge_config()
    key = cache.key_for(program, config)
    payload = snapshot_result(simulate(program, config))
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(4) as pool:
        stores = pool.starmap(
            _hammer_store, [(cache.root, key, payload, 25)] * 4
        )
    assert sum(stores) == 1  # first writer won; everyone else deduped
    recovered = cache.load(key, config=config)
    assert recovered is not None
    assert _stats_json(recovered) == _stats_json(CachedSimResult(payload))
    assert cache.counters()["quarantined"] == 0


def test_duplicate_submit_race_dedups_under_the_write_lock(program, cache):
    """Satellite: two clients computing the same uncached point must
    dedup at store time — the loser's write is skipped, neither client
    ever observes a partial entry, and a damaged existing entry is
    overwritten rather than trusted."""
    from repro.perf.cache import snapshot_result

    config = sandy_bridge_config()
    key = cache.key_for(program, config)
    payload = snapshot_result(simulate(program, config))

    first = ResultCache(root=cache.root)
    second = ResultCache(root=cache.root)
    assert first.store(key, payload) is not None
    assert second.store(key, payload) is not None  # returns the entry path
    assert first.counters()["stores"] == 1
    assert second.counters()["deduped"] == 1
    assert second.counters()["stores"] == 0
    assert second.load(key, config=config) is not None

    # a damaged entry must NOT win the dedup check: the fresh payload
    # replaces it
    with open(cache.path_for(key), "w") as fh:
        fh.write('{"stats": {')
    third = ResultCache(root=cache.root)
    assert third.store(key, payload) is not None
    assert third.counters()["stores"] == 1
    assert third.load(key, config=config) is not None


# ------------------------------------------------------- sampled entries


def test_key_covers_sampling(program):
    """A sampled run must never be served from (or poison) the
    full-detail entry for the same point, and distinct plans must not
    collide with each other."""
    from repro.perf.sample import SamplingPlan

    config = sandy_bridge_config()
    full = result_key(program, config)
    default_plan = result_key(program, config, sampling=SamplingPlan())
    long_plan = result_key(
        program, config, sampling=SamplingPlan(interval_length=4000)
    )
    assert len({full, default_plan, long_plan}) == 3
    # sampling=None leaves the digest byte-identical to the pre-sampling
    # key layout, so existing caches stay warm across the upgrade.
    assert result_key(program, config, sampling=None) == full
    # A plan object and its fingerprint string are the same identity.
    assert result_key(
        program, config, sampling=SamplingPlan().fingerprint()
    ) == default_plan


def test_sampled_entry_round_trips_with_report(program, cache):
    from repro.perf.sample import SampledSimulator, SamplingPlan

    plan = SamplingPlan(interval_length=100, detail_warmup=20, period=400,
                        head_detail=100, tail_detail=100)
    config = sandy_bridge_config()
    live = SampledSimulator(program, config, plan).run(150)
    key = cache.key_for(program, config, 150, sampling=plan)
    cache.store_result(key, live)
    cached = cache.load(key, config=config)
    assert cached is not None
    assert cached.sampling == live.sampling
    assert _stats_json(cached) == _stats_json(live)
    assert cached.manifest()["sampling"] == live.sampling


def test_corrupt_sampled_entry_quarantines_like_a_full_one(program, cache):
    import os

    from repro.perf.sample import SampledSimulator, SamplingPlan

    plan = SamplingPlan(interval_length=100, detail_warmup=20, period=400,
                        head_detail=100, tail_detail=100)
    config = sandy_bridge_config()
    live = SampledSimulator(program, config, plan).run(150)
    key = cache.key_for(program, config, 150, sampling=plan)
    cache.store_result(key, live)
    path = cache.path_for(key)
    with open(path, "w") as fh:
        fh.write('{"sampling": tru')
    assert cache.load(key, config=config) is None
    assert cache.counters()["quarantined"] == 1
    assert os.path.exists(path + ".corrupt")
    # A fresh store recovers the entry at the original path.
    cache.store_result(key, live)
    recovered = cache.load(key, config=config)
    assert recovered is not None
    assert recovered.sampling == live.sampling
