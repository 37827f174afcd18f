"""Event tracing: ring buffers, observers, instruction lifecycles."""

import pytest

from repro.core.pipeline import Pipeline
from repro.obs.events import (
    EVENT_KINDS,
    CycleRecorder,
    EventTracer,
    MultiObserver,
    PipelineObserver,
    RingBuffer,
)


# -- ring buffer ----------------------------------------------------------


def test_ring_keeps_order_below_capacity():
    ring = RingBuffer(8)
    for i in range(5):
        ring.append(i)
    assert ring.to_list() == [0, 1, 2, 3, 4]
    assert len(ring) == 5
    assert ring.dropped == 0


def test_ring_truncates_oldest_first():
    ring = RingBuffer(4)
    for i in range(10):
        ring.append(i)
    assert ring.to_list() == [6, 7, 8, 9]
    assert len(ring) == 4
    assert ring.dropped == 6


def test_ring_clear():
    ring = RingBuffer(2)
    for i in range(5):
        ring.append(i)
    ring.clear()
    assert ring.to_list() == []
    assert ring.dropped == 0


def test_ring_rejects_bad_capacity():
    with pytest.raises(ValueError):
        RingBuffer(0)


# -- observers ------------------------------------------------------------


def test_multi_observer_fans_out():
    class Probe(PipelineObserver):
        __slots__ = ("seen",)

        def __init__(self):
            self.seen = []

        def on_retire(self, uop, cycle):
            self.seen.append((uop, cycle))

    first, second = Probe(), Probe()
    multi = MultiObserver([first])
    multi.add(second)
    multi.on_retire("u", 7)
    assert first.seen == [("u", 7)]
    assert second.seen == [("u", 7)]
    multi.remove(first)
    multi.on_retire("v", 8)
    assert len(first.seen) == 1
    assert len(second.seen) == 2


def test_attach_detach_observer(count_program, tiny_config):
    pipeline = Pipeline(count_program, tiny_config)
    assert pipeline.obs is None  # tracing off by default
    tracer = EventTracer()
    pipeline.attach_observer(tracer)
    assert pipeline.obs is tracer
    sampler = CycleRecorder()
    pipeline.attach_observer(sampler)  # second attach -> fan-out
    assert isinstance(pipeline.obs, MultiObserver)
    pipeline.detach_observer(sampler)
    pipeline.detach_observer(tracer)
    assert pipeline.obs is None


# -- event tracing on a real run ------------------------------------------


@pytest.fixture
def traced_run(count_program, tiny_config):
    pipeline = Pipeline(count_program, tiny_config)
    tracer = EventTracer()
    sampler = CycleRecorder()
    pipeline.attach_observer(tracer)
    pipeline.attach_observer(sampler)
    stats = pipeline.run()
    return pipeline, tracer, sampler, stats


def test_event_counts_match_stats(traced_run):
    _, tracer, _, stats = traced_run
    assert tracer.counts["fetch"] == stats.fetched
    assert tracer.counts["retire"] == stats.retired
    assert tracer.counts["squash"] == stats.squashed
    assert tracer.counts["recovery"] == stats.recoveries + stats.retire_recoveries
    assert set(tracer.counts) == set(EVENT_KINDS)


def test_events_are_well_formed(traced_run):
    _, tracer, _, _ = traced_run
    events = tracer.events.to_list()
    assert events
    cycles = [e.cycle for e in events]
    assert cycles == sorted(cycles)  # appended in simulation order
    for event in events:
        assert event.kind in EVENT_KINDS
        assert isinstance(event.seq, int)
        assert isinstance(event.op, str) and event.op


def test_lifecycles_are_stage_ordered(traced_run):
    _, tracer, _, stats = traced_run
    lifecycles = list(tracer.iter_lifecycles())
    retired = [l for l in lifecycles if l.retire is not None]
    assert len(retired) == stats.retired
    for life in retired:
        assert life.fetch is not None
        assert life.fetch <= life.rename <= life.retire
        if life.issue is not None:  # not every uop passes the scheduler
            assert life.rename <= life.issue
            if life.execute is not None:
                assert life.issue <= life.execute <= life.retire
        assert life.completed
        assert life.end == life.retire


def test_squashed_lifecycles_recorded(traced_run):
    _, tracer, _, stats = traced_run
    squashed = [l for l in tracer.iter_lifecycles() if l.squash is not None]
    if stats.squashed:  # count program mispredicts, so wrong path exists
        assert squashed
        for life in squashed:
            assert life.retire is None
            assert life.end == life.squash


def test_occupancy_sampler_tracks_cycles(traced_run):
    pipeline, _, sampler, stats = traced_run
    samples = sampler.records.to_list()
    assert samples
    assert len(samples) + sampler.records.dropped == stats.cycles
    assert max(s.rob for s in samples) > 0
    assert max(s.bq for s in samples) > 0  # count program uses the BQ
    for sample in samples:
        assert sample.rob >= 0 and sample.iq >= 0 and sample.mshr >= 0


def test_event_ring_truncation_under_pressure(count_program, tiny_config):
    pipeline = Pipeline(count_program, tiny_config)
    tracer = EventTracer(capacity=32, lifecycle_capacity=8)
    pipeline.attach_observer(tracer)
    stats = pipeline.run()
    assert len(tracer.events) == 32
    assert tracer.events.dropped > 0
    # counts keep the full totals even though the ring truncated
    assert tracer.counts["retire"] == stats.retired
