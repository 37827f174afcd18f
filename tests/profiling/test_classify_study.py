"""The Figure 6 / Table I classification study."""

import pytest

from repro.profiling import run_classification_study
from repro.workloads.suite import (
    CLASS_HAMMOCK,
    CLASS_LOOP_BRANCH,
    CLASS_PARTIALLY_SEPARABLE,
    CLASS_TOTALLY_SEPARABLE,
)


@pytest.fixture(scope="module")
def study():
    return run_classification_study(scale=0.125, max_instructions=30_000)


def test_covers_all_workload_inputs(study):
    from repro.workloads import all_workloads

    expected = sum(len(w.inputs) for w in all_workloads())
    assert len(study.rows) == expected


def test_suite_shares_sum_to_one(study):
    shares = study.suite_shares()
    assert set(shares) <= {"SPEC2006", "BioBench", "MineBench", "cBench"}
    assert abs(sum(shares.values()) - 1.0) < 1e-9


def test_targeted_share_dominates(study):
    # the paper: ~78% of MPKI is in targeted benchmarks; ours is dominated
    # by hard-branch workloads by construction
    assert study.targeted_share() > 0.6


def test_easy_workload_is_excluded(study):
    easy = [r for r in study.rows if r.workload == "easy_loop"]
    assert easy and all(r.excluded for r in easy)


def test_class_shares(study):
    shares = study.class_shares()
    separable = (
        shares.get(CLASS_TOTALLY_SEPARABLE, 0)
        + shares.get(CLASS_PARTIALLY_SEPARABLE, 0)
        + shares.get(CLASS_LOOP_BRANCH, 0)
    )
    # CFD-addressable classes carry the largest share (paper: 41.4%)
    assert separable == pytest.approx(study.separable_share())
    assert separable > shares.get(CLASS_HAMMOCK, 0)
    assert 0 < separable <= 1


def test_table_rows_sorted(study):
    rows = study.table_rows()
    suites = [r.suite for r in rows]
    assert suites == sorted(suites)
    assert all(r.mpki >= 0 for r in rows)


def test_a_callers_builds_give_the_same_study(study):
    from repro.workloads import get_workload

    calls = []

    def build(workload_name, variant, input_name):
        calls.append((workload_name, variant, input_name))
        return get_workload(workload_name).build(variant, input_name, 0.125, 1)

    given = run_classification_study(max_instructions=30_000, build=build)
    assert len(calls) == len(study.rows)
    assert {variant for _, variant, _ in calls} == {"base"}
    assert given.rows == study.rows
