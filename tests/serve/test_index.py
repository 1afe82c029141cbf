"""Large compiled tables: batched lookups stay bit-identical to scalar ones.

Tables of 4096 codes and more once searched a separate tree-shaped bucket
index; every table now calls ``np.searchsorted`` on its own sorted codes.
The test below keeps its name from that layout and pins what it guarded:
at that size, batched equality and range estimates agree exactly with the
scalar path, and the scalar path with the histogram itself.
"""

import numpy as np

from repro.core.biased import v_opt_bias_hist
from repro.serve.tables import compile_histogram


class TestCompiledTableIntegration:
    def test_large_table_builds_tree_and_stays_bit_identical(self):
        n = 4096
        freqs = [float(f) for f in range(n, 0, -1)]
        hist = v_opt_bias_hist(freqs, 8, values=list(range(n)))
        table = compile_histogram(hist)
        assert table.domain_size == n

        probes = [0, 17, n // 2, n - 1, n, -3]
        batch = table.equality_batch(probes)
        scalar = [table.equality(v) for v in probes]
        assert np.array_equal(batch, np.asarray(scalar))
        for value in (0, 17, n // 2, n - 1):
            assert table.equality(value) == hist.approx_of_value(value)

        lows = [-1, 0, n // 2, None, n - 1]
        highs = [5, n // 3, None, 17, n + 5]
        for include in (True, False):
            batch = table.range_batch(
                lows, highs, include_low=include, include_high=include
            )
            scalar = [
                table.range_sum(lo, hi, include_low=include, include_high=include)
                for lo, hi in zip(lows, highs)
            ]
            assert np.array_equal(batch, np.asarray(scalar))
