"""One point runner: ``repro run``, the sweep worker and the benches.

:func:`repro.perf.sweep.run_point` builds, probes the result cache,
simulates and stores for every caller, so a point's cache entry, its key
and the bytes ``repro run --json`` prints do not depend on which caller
ran it first.
"""

import glob
import io
import os

import pytest

from repro.cli import main
from repro.core.simulator import Simulator
from repro.perf import ResultCache, SweepPoint, default_cache_dir
from repro.perf.sample import SampledSimulator
from repro.rel import run_supervised_sweep

_SAMPLE_SPEC = "interval=400,warmup=100,period=2000,head=500,tail=500"

#: (``repro run`` arguments, the same point as a SweepPoint).
_FULL = (
    ["soplex", "--variant", "cfd", "--scale", "0.125",
     "--max-instructions", "4000"],
    dict(workload="soplex", variant="cfd", scale=0.125,
         max_instructions=4000),
)
_SAMPLED = (
    ["bzip2", "--variant", "tq", "--input", "chicken", "--scale", "0.25",
     "--max-instructions", "20000", "--sample=%s" % _SAMPLE_SPEC],
    dict(workload="bzip2", variant="tq", input_name="chicken", scale=0.25,
         max_instructions=20_000, sampling=_SAMPLE_SPEC),
)


def _repro_run(*argv):
    out = io.StringIO()
    assert main(["run", *argv], out=out) == 0
    return out.getvalue()


def _entry_keys():
    """The keys of every entry in the (per-test) default result cache."""
    pattern = os.path.join(default_cache_dir(), "v*", "*", "*.json")
    return sorted(os.path.basename(path)[:-len(".json")]
                  for path in glob.glob(pattern))


@pytest.fixture
def no_simulation(monkeypatch):
    """Make any simulation fail the test: what follows must be a hit."""
    def refuse(*args, **kwargs):
        raise AssertionError("simulated a point the cache holds")

    def arm():
        monkeypatch.setattr(Simulator, "run", refuse)
        monkeypatch.setattr(SampledSimulator, "run", refuse)

    return arm


@pytest.mark.parametrize("case", [_FULL, _SAMPLED], ids=["full", "sampled"])
def test_run_json_bytes_cold_cached_and_uncached(case, no_simulation):
    argv, _ = case
    cold = _repro_run(*argv, "--json")
    assert len(_entry_keys()) == 1
    uncached = _repro_run(*argv, "--json", "--no-cache")
    no_simulation()
    cached = _repro_run(*argv, "--json")
    assert cold == cached == uncached
    assert len(_entry_keys()) == 1


@pytest.mark.parametrize("case", [_FULL, _SAMPLED], ids=["full", "sampled"])
def test_repro_run_entry_is_a_sweep_hit(case):
    argv, fields = case
    _repro_run(*argv, "--json")
    [key] = _entry_keys()
    [outcome] = run_supervised_sweep([SweepPoint(**fields)], jobs=1,
                                     cache=ResultCache())
    assert outcome.ok and outcome.cached
    assert outcome.cache_key == key


@pytest.mark.parametrize("case", [_FULL, _SAMPLED], ids=["full", "sampled"])
def test_sweep_entry_is_a_repro_run_hit(case, no_simulation):
    argv, fields = case
    [outcome] = run_supervised_sweep([SweepPoint(**fields)], jobs=1,
                                     cache=ResultCache())
    assert outcome.ok and not outcome.cached
    assert _entry_keys() == [outcome.cache_key]
    no_simulation()
    _repro_run(*argv, "--json")
    assert _entry_keys() == [outcome.cache_key]


def test_run_check_neither_loads_nor_stores(monkeypatch):
    argv, _ = _FULL
    _repro_run(*argv)
    [path] = glob.glob(os.path.join(default_cache_dir(), "v*", "*", "*.json"))
    before = os.stat(path).st_mtime_ns
    calls = []
    for name in ("load", "store"):
        monkeypatch.setattr(ResultCache, name,
                            lambda self, *a, _name=name, **k:
                            calls.append(_name))
    assert "retired" in _repro_run(*argv, "--check")
    assert calls == []
    assert os.stat(path).st_mtime_ns == before


def test_sampled_and_full_detail_runs_keep_separate_entries():
    argv, _ = _SAMPLED
    full = [arg for arg in argv if not arg.startswith("--sample")]
    assert "sampling" not in _repro_run(*full)
    assert "sampling" in _repro_run(*argv)
    assert len(_entry_keys()) == 2
