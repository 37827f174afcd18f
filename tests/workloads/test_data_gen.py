"""Input-data generators."""

import numpy as np
from hypothesis import given, strategies as st

from repro.workloads import data_gen


def test_random_predicates_bias():
    bits = data_gen.random_predicates(10_000, taken_fraction=0.3, seed=1)
    assert 0.25 < bits.mean() < 0.35


def test_patterned_predicates_repeat():
    bits = data_gen.patterned_predicates(12, pattern=(1, 0, 0))
    assert list(bits) == [1, 0, 0] * 4


def test_values_with_threshold_fraction():
    values = data_gen.values_with_threshold(
        10_000, threshold=0, below_fraction=0.4, seed=2
    )
    below = (values < 0).mean()
    assert 0.35 < below < 0.45


def test_random_permutation_is_permutation():
    perm = data_gen.random_permutation(512, seed=3)
    assert sorted(perm.tolist()) == list(range(512))


def test_run_lengths_bounds():
    runs = data_gen.run_lengths(5_000, max_run=9, zero_fraction=0.2, seed=4)
    assert runs.min() >= 0
    assert runs.max() <= 9
    zero_share = (runs == 0).mean()
    assert 0.15 < zero_share < 0.25


def test_to_words_masks_negative():
    assert data_gen.to_words(np.array([-1, 5])) == [0xFFFFFFFF, 5]


def test_to_words_matches_the_per_value_loop():
    values = [0, 1, -1, 2**31, -2**31, 2**32 - 1, 2**32, -2**32 - 7,
              2**63 - 1, -2**63]
    reference = [int(v) & 0xFFFFFFFF for v in values]
    assert data_gen.to_words(np.array(values, dtype=np.int64)) == reference
    assert data_gen.to_words(values) == reference
    assert data_gen.to_words(np.array([2**64 - 1], dtype=np.uint64)) == [
        0xFFFFFFFF]
    assert data_gen.to_words([2**64 + 5, -1]) == [5, 0xFFFFFFFF]
    assert data_gen.to_words(np.array([1.9, -1.5])) == [1, 0xFFFFFFFF]


@given(st.integers(1, 500), st.integers(0, 2**31))
def test_determinism(count, seed):
    a = data_gen.random_predicates(count, seed=seed)
    b = data_gen.random_predicates(count, seed=seed)
    assert (a == b).all()
