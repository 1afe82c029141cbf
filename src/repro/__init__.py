"""repro — reproduction of Ioannidis & Poosala (SIGMOD 1995).

"Balancing Histogram Optimality and Practicality for Query Result Size
Estimation": serial and end-biased histograms, v-optimality, the V-OptHist
and V-OptBiasHist construction algorithms, and the full experimental
evaluation, on top of an in-memory relational substrate.

Quickstart::

    from repro import zipf_frequencies, v_opt_bias_hist, self_join_size

    freqs = zipf_frequencies(total=1000, domain_size=100, z=1.0)
    hist = v_opt_bias_hist(freqs, buckets=5)
    print(self_join_size(freqs), hist.self_join_estimate())
"""

from __future__ import annotations

from repro.core import (
    AttributeDistribution,
    FrequencyMatrix,
    FrequencySet,
    Histogram,
    advisory_report,
    arrange_frequency_set,
    chain_result_size,
    equi_depth_histogram,
    equi_width_histogram,
    estimate_chain,
    estimate_equality,
    estimate_join,
    estimate_membership,
    estimate_not_equal,
    estimate_range,
    estimate_self_join,
    joint_matrix_algorithm,
    matrix_algorithm,
    minimum_buckets,
    relative_error,
    selection_vector,
    self_join_error,
    self_join_size,
    trivial_histogram,
    v_opt_bias_hist,
    v_opt_hist_dp,
    v_opt_hist_exhaustive,
    v_optimal_serial_histogram,
)
from repro.data import zipf_frequencies

__version__ = "1.0.0"

__all__ = [
    "AttributeDistribution",
    "FrequencyMatrix",
    "FrequencySet",
    "Histogram",
    "advisory_report",
    "arrange_frequency_set",
    "chain_result_size",
    "equi_depth_histogram",
    "equi_width_histogram",
    "estimate_chain",
    "estimate_equality",
    "estimate_join",
    "estimate_membership",
    "estimate_not_equal",
    "estimate_range",
    "estimate_self_join",
    "joint_matrix_algorithm",
    "matrix_algorithm",
    "minimum_buckets",
    "relative_error",
    "selection_vector",
    "self_join_error",
    "self_join_size",
    "trivial_histogram",
    "v_opt_bias_hist",
    "v_opt_hist_dp",
    "v_opt_hist_exhaustive",
    "v_optimal_serial_histogram",
    "zipf_frequencies",
    "__version__",
]
