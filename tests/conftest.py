"""Shared fixtures for the test suite.

The cycle-level simulator tests run small programs (hundreds to a few
thousand instructions) so the whole suite stays fast; the same machinery
is exercised at scale by the benchmarks.
"""

import pytest

from repro.arch.executor import run_program
from repro.core import sandy_bridge_config, simulate
from repro.isa import assemble


@pytest.fixture(autouse=True)
def _fresh_result_cache(tmp_path_factory, monkeypatch):
    """Give every test its own empty result cache, so the suite never
    reads or fills the user's ``~/.cache/repro``.  Cache keys carry no
    simulator version: an entry left by older code would be served as
    a hit.  The trace store defaults to ``<cache>/traces``, so it moves
    along.  A test that sets ``REPRO_CACHE_DIR`` itself still wins."""
    monkeypatch.setenv("REPRO_CACHE_DIR",
                       str(tmp_path_factory.mktemp("repro-cache")))
    monkeypatch.delenv("REPRO_TRACE_DIR", raising=False)


@pytest.fixture
def tiny_config():
    """A small, fast core config for unit tests."""
    return sandy_bridge_config(
        rob_size=64,
        iq_size=24,
        lq_size=16,
        sq_size=12,
        num_checkpoints=8,
    )


@pytest.fixture
def count_program():
    """Counts the non-zero elements of a 10-element array via the BQ."""
    return assemble(
        """
.data
arr: .word 5, 0, 7, 0, 2, 9, 0, 1, 0, 4
out: .word 0

.text
main:
    la   r1, arr
    la   r2, out
    li   r3, 10
gen:
    lw   r5, 0(r1)
    push_bq r5
    addi r1, r1, 4
    addi r3, r3, -1
    bnez r3, gen
    li   r3, 10
    li   r4, 0
use:
    b_bq hit
    j    next
hit:
    addi r4, r4, 1
next:
    addi r3, r3, -1
    bnez r3, use
    sw   r4, 0(r2)
    halt
""",
        name="count",
    )


def run_both(program, config=None, max_instructions=None):
    """Run a program functionally and on the cycle core; assert equality.

    Returns (functional_executor, sim_result).
    """
    functional = run_program(program)
    result = simulate(
        program,
        config if config is not None else sandy_bridge_config(),
        max_instructions=max_instructions,
    )
    if max_instructions is None:
        checker_state = result.pipeline.checker.state
        assert checker_state.same_architectural_state(
            functional.state, compare_pc=False
        ), checker_state.diff(functional.state)
        assert result.stats.retired == functional.retired
    return functional, result


@pytest.fixture
def run_both_fixture():
    return run_both
