"""Core contribution: histogram classes, optimality theory, and estimation.

This package implements the paper's machinery end to end: frequency sets and
matrices (Section 2), the histogram taxonomy with the serial / biased /
end-biased classes, the optimality results (Section 3), the V-OptHist and
V-OptBiasHist construction algorithms (Section 4), and histogram-based
result-size estimation.
"""

from __future__ import annotations

from repro.core.frequency import AttributeDistribution, FrequencySet, as_frequency_array
from repro.core.matrix import (
    FrequencyMatrix,
    arrange_frequency_set,
    chain_result_size,
    selection_vector,
)
from repro.core.buckets import Bucket, buckets_interleave, partition_sizes
from repro.core.histogram import Histogram
from repro.core.heuristic import equi_depth_histogram, equi_width_histogram, trivial_histogram
from repro.core.serial import (
    AUTO_EXHAUSTIVE_LIMIT,
    all_serial_histograms,
    enumerate_serial_partitions,
    dp_contiguous_partition,
    serial_error_from_sizes,
    serial_partition_count,
    v_opt_hist_dp,
    v_opt_hist_exhaustive,
    v_optimal_serial_histogram,
)
from repro.core.biased import (
    all_biased_partitions,
    all_end_biased_histograms,
    end_biased_histogram,
    end_biased_sizes,
    v_opt_bias_hist,
)
from repro.core.optimality import (
    analytic_v_error_two_way,
    approximate_self_join_size,
    exact_expected_difference_two_way,
    exact_v_error_two_way,
    monte_carlo_v_error_two_way,
    self_join_error,
    self_join_sigma,
    self_join_size,
)
from repro.core.advisor import (
    ADVISABLE_KINDS,
    AdvisoryRow,
    advisory_report,
    allocate_bucket_budget,
    minimum_buckets,
    optimal_error_for_buckets,
)
from repro.core.construction import (
    JointFrequencyRow,
    joint_matrix_algorithm,
    joint_table_result_size,
    matrix_algorithm,
    matrix_algorithm_2d,
)
from repro.core.tensor import (
    FrequencyTensor,
    arrange_frequency_tensor,
    tree_result_size,
)
from repro.core.inequality import (
    RANGE_OPERATORS,
    estimate_band_join,
    estimate_not_equals_join,
    estimate_range_join,
    not_equals_estimation_error,
    not_equals_join_size,
    not_equals_selection_size,
    range_join_size,
)
from repro.core.successors import compressed_histogram, max_diff_histogram
from repro.core.valueorder import bucket_boundaries, v_optimal_value_histogram
from repro.core.multidim import (
    GridHistogram,
    RectBucket,
    independence_estimate,
    independence_matrix,
)
from repro.core.estimator import (
    approximate_chain,
    estimate_chain,
    estimate_equality,
    estimate_join,
    estimate_membership,
    estimate_not_equal,
    estimate_range,
    estimate_self_join,
    relative_error,
)

__all__ = [
    "AttributeDistribution",
    "FrequencySet",
    "as_frequency_array",
    "FrequencyMatrix",
    "arrange_frequency_set",
    "chain_result_size",
    "selection_vector",
    "Bucket",
    "buckets_interleave",
    "partition_sizes",
    "Histogram",
    "equi_depth_histogram",
    "equi_width_histogram",
    "trivial_histogram",
    "AUTO_EXHAUSTIVE_LIMIT",
    "all_serial_histograms",
    "enumerate_serial_partitions",
    "dp_contiguous_partition",
    "serial_error_from_sizes",
    "serial_partition_count",
    "v_opt_hist_dp",
    "v_opt_hist_exhaustive",
    "v_optimal_serial_histogram",
    "all_biased_partitions",
    "all_end_biased_histograms",
    "end_biased_histogram",
    "end_biased_sizes",
    "v_opt_bias_hist",
    "analytic_v_error_two_way",
    "approximate_self_join_size",
    "exact_expected_difference_two_way",
    "exact_v_error_two_way",
    "monte_carlo_v_error_two_way",
    "self_join_error",
    "self_join_sigma",
    "self_join_size",
    "ADVISABLE_KINDS",
    "AdvisoryRow",
    "advisory_report",
    "allocate_bucket_budget",
    "minimum_buckets",
    "optimal_error_for_buckets",
    "JointFrequencyRow",
    "joint_matrix_algorithm",
    "joint_table_result_size",
    "matrix_algorithm",
    "matrix_algorithm_2d",
    "approximate_chain",
    "estimate_chain",
    "estimate_equality",
    "estimate_join",
    "estimate_membership",
    "estimate_not_equal",
    "estimate_range",
    "estimate_self_join",
    "relative_error",
    "FrequencyTensor",
    "arrange_frequency_tensor",
    "tree_result_size",
    "RANGE_OPERATORS",
    "estimate_band_join",
    "estimate_not_equals_join",
    "estimate_range_join",
    "not_equals_estimation_error",
    "not_equals_join_size",
    "not_equals_selection_size",
    "range_join_size",
    "GridHistogram",
    "RectBucket",
    "independence_estimate",
    "independence_matrix",
    "compressed_histogram",
    "max_diff_histogram",
    "bucket_boundaries",
    "v_optimal_value_histogram",
]
