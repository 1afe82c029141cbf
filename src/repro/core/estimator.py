"""Result-size estimation from histograms (Sections 2.2, 5.2, and 6).

Two estimation styles are provided:

* **value-aware** — histograms built with their domain values attached
  (catalog histograms) estimate selections and two-way joins by mapping each
  value through its bucket average, exactly as an optimizer would;
* **arrangement-based** — the Section 5.2 chain-query experiments apply each
  relation's histogram to a concrete arrangement of its frequency matrix and
  multiply the approximate matrices (Theorem 2.1 on histogram matrices).

Section 6 observes that ``≠`` and range selections reduce to (complements
of) disjunctive equality selections, so all of them estimate by summing
approximate per-value frequencies.

The canonical surface is histogram-first:

``estimate_equality``, ``estimate_membership``, ``estimate_not_equal``,
``estimate_range`` (with keyword-only bound inclusivity), ``estimate_join``,
``estimate_self_join``, ``estimate_chain``, ``approximate_chain``, and
``relative_error``.  Every function answers from the histogram's compiled
lookup table (:mod:`repro.serve.tables`), compiled once per histogram, so
repeated calls — and the batched service layer — return bit-identical
floats.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Iterable, Optional, Sequence

import numpy as np

from repro.analysis.contracts import returns_estimate
from repro.core.histogram import Histogram
from repro.core.matrix import FrequencyMatrix, MatrixLike, chain_result_size
from repro.util.validation import ensure_non_negative

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.serve.tables import CompiledHistogram


def _compiled(histogram: Histogram) -> "CompiledHistogram":
    """The histogram's (cached) compiled lookup table."""
    from repro.serve.tables import compile_histogram

    return compile_histogram(histogram)


# ----------------------------------------------------------------------
# Canonical surface
# ----------------------------------------------------------------------


@returns_estimate
def estimate_equality(
    histogram: Histogram,
    value: Hashable,
) -> float:
    """Estimate ``|σ_{a=value}(R)|``: the value's approximate frequency."""
    return _compiled(histogram).equality(value)


@returns_estimate
def estimate_membership(
    histogram: Histogram,
    values: Iterable[Hashable],
) -> float:
    """Estimate a disjunctive selection ``a ∈ {c1..ck}`` (Section 2.2).

    Repeated probe values are deduplicated (keeping first-occurrence
    order, so the summation order — and hence the float result — is
    deterministic): ``a IN (c, c)`` selects each matching tuple once.
    Unhashable probe values contribute 0.0 mass — nothing stored in a
    histogram can equal them — matching :func:`estimate_equality` instead
    of raising.
    """
    return _compiled(histogram).membership(values)


@returns_estimate
def estimate_not_equal(
    histogram: Histogram,
    value: Hashable,
) -> float:
    """Estimate ``a ≠ value`` as the complement of the equality selection.

    Section 6: the ``≠`` operator is "simply the complement of equality", so
    serial histograms remain v-optimal for it.
    """
    return _compiled(histogram).not_equal(value)


@returns_estimate
def estimate_range(
    histogram: Histogram,
    low: Optional[Hashable] = None,
    high: Optional[Hashable] = None,
    *,
    include_low: bool = True,
    include_high: bool = True,
) -> float:
    """Estimate a range selection by summing approximate frequencies in range.

    Section 6 treats range selections as disjunctive equality selections over
    the values in the range; the estimate is the sum of their bucket
    averages — served as a prefix-sum difference over the sorted domain.
    ``None`` bounds are open-ended; both bounds are inclusive unless
    *include_low* / *include_high* say otherwise.
    """
    return _compiled(histogram).range_sum(
        low, high, include_low=include_low, include_high=include_high
    )


@returns_estimate
def estimate_join(
    left: Histogram,
    right: Histogram,
) -> float:
    """Estimate a two-way equality join from two value-aware histograms.

    ``Σ_v f̂_left(v) · f̂_right(v)`` over the intersection of the recorded
    domains — Theorem 2.1 applied to the two histogram matrices.
    """
    return _compiled(left).join_with(_compiled(right))


@returns_estimate
def estimate_self_join(histogram: Histogram) -> float:
    """Estimate a self-join: ``Σ_i T_i²/p_i`` (Proposition 3.1, formula (2))."""
    return histogram.self_join_estimate()


def approximate_chain(
    histograms: Sequence[Histogram],
    matrices: Sequence[MatrixLike],
) -> list[np.ndarray]:
    """Apply per-relation histograms to concrete frequency-matrix arrangements.

    Each histogram must have been built from the frequency multiset of the
    corresponding matrix; the result is the list of *histogram matrices*
    the optimizer would multiply.
    """
    if len(matrices) != len(histograms):
        raise ValueError(
            f"got {len(matrices)} matrices but {len(histograms)} histograms"
        )
    approximated = []
    for matrix, histogram in zip(matrices, histograms):
        arr = (
            matrix.array
            if isinstance(matrix, FrequencyMatrix)
            else np.asarray(matrix, dtype=float)
        )
        approximated.append(histogram.approximate_array(arr))
    return approximated


@returns_estimate
def estimate_chain(
    histograms: Sequence[Histogram],
    matrices: Sequence[MatrixLike],
) -> float:
    """Approximate chain-query result size: product of histogram matrices."""
    return chain_result_size(approximate_chain(histograms, matrices))


def relative_error(exact: float, estimate: float) -> float:
    """``|S − S'| / S`` — the paper's error metric (y-axis of Figures 6-7).

    The metric is undefined at ``S = 0``; this implementation pins the two
    edge cases the way the paper's experiments treat them:

    * ``exact == 0`` and ``estimate == 0`` → ``0.0`` — the estimate is
      exactly right, so it contributes no error to a mean;
    * ``exact == 0`` and ``estimate > 0`` → ``inf`` — any nonzero estimate
      of an empty result is unboundedly wrong under a relative metric
      (averages over workloads containing such queries are therefore
      ``inf``; filter empty-result queries out first if that is not
      intended).

    Both arguments must be non-negative (result sizes are counts).
    """
    exact = ensure_non_negative(exact, "exact")
    estimate = ensure_non_negative(estimate, "estimate")
    if exact == 0:
        return 0.0 if estimate == 0 else float("inf")
    return abs(exact - estimate) / exact
