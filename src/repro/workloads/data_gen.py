"""Seeded input-data generators for the workload kernels.

Branch behaviour is entirely data-driven, so these generators are the
levers that make a kernel's key branch hard or easy to predict and its
feeding loads hit or miss:

- :func:`random_predicates` — i.i.d. biased coin flips: the worst case for
  any history-based predictor (entropy -> misprediction rate).
- :func:`patterned_predicates` — short repeating patterns: easy for TAGE.
- :func:`random_permutation` — index arrays that defeat stride prefetchers
  and spread accesses over a footprint larger than a chosen cache level.
- :func:`run_lengths` — short data-dependent trip counts for separable
  loop-branches (astar's 0..9 distribution, Section IV-C1).
"""

import numpy as np

_WORD = 0xFFFFFFFF


def rng(seed):
    """Deterministic generator for a workload seed."""
    return np.random.default_rng(seed)


def random_predicates(count, taken_fraction=0.5, seed=0):
    """0/1 array with i.i.d. P(1) = taken_fraction (hard to predict)."""
    generator = rng(seed)
    return (generator.random(count) < taken_fraction).astype(np.int64)


def patterned_predicates(count, pattern=(1, 1, 0, 1), seed=0):
    """Repeating short pattern (easy for a history-based predictor)."""
    reps = count // len(pattern) + 1
    return np.tile(np.array(pattern, dtype=np.int64), reps)[:count]


def signed_values(count, low, high, seed=0):
    """Uniform signed values in [low, high]."""
    generator = rng(seed)
    return generator.integers(low, high + 1, size=count, dtype=np.int64)


def values_with_threshold(count, threshold, below_fraction, spread=1000, seed=0):
    """Values of which *below_fraction* are < threshold, randomly placed.

    Models soplex's ``test[i] < -theeps`` scan: the comparison outcome is
    an i.i.d. coin flip with the chosen bias.
    """
    generator = rng(seed)
    below = generator.integers(threshold - spread, threshold, size=count)
    above = generator.integers(threshold, threshold + spread, size=count)
    pick_below = generator.random(count) < below_fraction
    return np.where(pick_below, below, above).astype(np.int64)


def random_permutation(count, seed=0):
    """A permutation of range(count): defeats stride prefetch, spreads
    accesses uniformly over the whole footprint."""
    generator = rng(seed)
    return generator.permutation(count).astype(np.int64)


def run_lengths(count, max_run=9, zero_fraction=0.2, seed=0):
    """Data-dependent trip counts in [0, max_run] (astar's TQ region)."""
    generator = rng(seed)
    lengths = generator.integers(1, max_run + 1, size=count)
    zeros = generator.random(count) < zero_fraction
    return np.where(zeros, 0, lengths).astype(np.int64)


def to_words(values):
    """Clamp numpy values into unsigned 32-bit words for ``.word`` data."""
    return [int(v) & _WORD for v in np.asarray(values).tolist()]
