"""The core paths no registered workload reaches keep their results.

No workload executes JALR, a queue Save/Restore, Pop_TQ_BOV, DIV or
NOP, so the stats, sampled and metrics goldens never run those paths.
``golden_every_path.json`` pins them instead: the ``stats.to_dict()``
and ``Pipeline.metrics()`` of ``test_enum_loads``'s every-path program
on both stock configs, and one sampled round of it (a detailed slice
through the call loop, a drain, a live warm gap over its JALR returns,
a restore of the committed state, and a second slice to the halt over
every queue path).  The file was written by :func:`_record` before the
detailed core's uop became a slotted record.
"""

import json
import os

import pytest

from repro.core import memory_bound_config, sandy_bridge_config
from repro.core.pipeline import Pipeline
from repro.core.warm import warm_advance
from repro.isa import assemble
from tests.core.test_enum_loads import _EVERY_PATH

_GOLDEN = os.path.join(os.path.dirname(__file__), "golden_every_path.json")
_CONFIGS = {
    "sandy_bridge": sandy_bridge_config,
    "memory_bound": memory_bound_config,
}


def _canonical(doc):
    """*doc* as the JSON text the golden file holds for it."""
    return json.dumps(json.loads(json.dumps(doc)), sort_keys=True)


def _full_run(config):
    pipeline = Pipeline(assemble(_EVERY_PATH), _CONFIGS[config]())
    stats = pipeline.run()
    return {"stats": stats.to_dict(), "metrics": pipeline.metrics()}


def _sampled_round():
    pipeline = Pipeline(assemble(_EVERY_PATH), sandy_bridge_config())
    first = pipeline.run_slice(30)
    pipeline.drain_to_committed()
    warmed = warm_advance(pipeline, 25)
    checker = pipeline.checker
    pipeline.restore_committed_state(checker.state.snapshot(), checker.retired)
    second = pipeline.run_slice(200)
    return {"first": first.to_dict(), "warmed": warmed,
            "second": second.to_dict(), "metrics": pipeline.metrics()}


def _record():
    doc = {config: _full_run(config) for config in sorted(_CONFIGS)}
    doc["sampled_round"] = _sampled_round()
    return doc


with open(_GOLDEN) as _fh:
    _WANT = json.load(_fh)


@pytest.mark.parametrize("config", sorted(_CONFIGS))
def test_every_path_run_byte_identical_to_golden(config):
    got = _full_run(config)
    assert got["stats"]["retired"] == 119
    assert _canonical(got) == _canonical(_WANT[config])


def test_every_path_sampled_round_byte_identical_to_golden():
    got = _sampled_round()
    assert (got["first"]["retired"], got["warmed"],
            got["second"]["retired"]) == (30, 25, 64)
    assert _canonical(got) == _canonical(_WANT["sampled_round"])
