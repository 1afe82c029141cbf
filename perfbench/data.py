"""Seeded input generation shared by the workloads (numpy only).

The seed decides which value carries which frequency and which probes
are sent; domain sizes, skews and row counts are fixed per workload, so
runs under different seeds do the same amount of work.
"""

from __future__ import annotations

import numpy as np


def rng(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per (seed, stream) pair."""
    salt = sum((i + 1) * ord(c) for i, c in enumerate(stream))
    return np.random.default_rng([int(seed), salt])


def zipf_column(
    gen: np.random.Generator, rows: int, domain: int, skew: float
) -> np.ndarray:
    """*rows* int64 values over ``0..domain-1`` with Zipf(*skew*) frequencies.

    The frequency multiset is exact (largest-remainder rounding of the
    Zipf shares to *rows*), so it is the same under every seed; the seed
    only decides which value gets which frequency (the paper's random
    arrangement) and the row order.
    """
    shares = 1.0 / np.arange(1, domain + 1, dtype=np.float64) ** skew
    shares *= rows / shares.sum()
    counts = np.floor(shares).astype(np.int64)
    short = rows - int(counts.sum())
    counts[np.argsort(counts - shares, kind="stable")[:short]] += 1
    values = gen.permutation(domain).astype(np.int64)
    column = np.repeat(values, counts)
    gen.shuffle(column)
    return column


def counts_of(column: np.ndarray, domain: int) -> np.ndarray:
    """Exact per-value counts (the truth every estimate is scored against)."""
    return np.bincount(column, minlength=domain).astype(np.int64)


def range_truth(prefix: np.ndarray, low: int, high: int) -> int:
    """Rows with ``low <= value <= high`` from a prefix-sum array."""
    return int(prefix[high + 1] - prefix[low])


def prefix_of(counts: np.ndarray) -> np.ndarray:
    out = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out
