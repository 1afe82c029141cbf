"""Regression tests for the numeric fast-path correctness holes.

Three bugs shared one root cause: the vectorized float64 path and the
exact dict path could disagree.  Each test here pins the *correct*
behaviour and documents the wrong answer the pre-fix code returned, so a
reintroduction fails loudly:

1. **Float64 key collapse** — distinct integers at/beyond 2**53 share
   one float64 code.  The old numeric path matched a probe to its
   neighbour (``equality_batch(2**53 + 1)`` returned ``2**53``'s
   frequency) and fed duplicate codes into
   ``np.intersect1d(assume_unique=True)`` in ``join_with`` (undefined
   results).  Such tables now demote to the exact path at compile time.
2. **Membership vs equality on unhashables** — ``membership`` raised
   ``TypeError`` from its dedup set while ``equality`` documented the
   0.0 degradation; both now degrade identically and the service
   surfaces the existing ``unhashable-value`` reason.
3. **NaN scalar/batch divergence** — ``equality(nan)`` could hit the
   dict through object identity (``hash(nan)`` is id-based on CPython)
   while the batched ``searchsorted`` always missed; ``CompiledCompact``
   handed NaN the remainder bucket, and the compact join let an explicit
   NaN join the partner's remainder.  NaN probes are 0-mass everywhere,
   and NaN domain values join nothing.
"""

import numpy as np
import pytest

from repro.engine.catalog import CatalogEntry, CompactEndBiased, StatsCatalog
from repro.serve import EstimationService, JoinProbe
from repro.serve.service import REASON_UNHASHABLE_VALUE
from repro.serve.tables import CompiledCompact, CompiledHistogram

BIG = 2**53


class TestFloat64KeyCollapse:
    def test_collapsing_domain_demotes_to_exact_path(self):
        table = CompiledHistogram([BIG, BIG + 1], [5.0, 7.0])
        # float64 cannot tell the two values apart …
        assert float(BIG) == float(BIG + 1)
        # … so the table must not claim the vectorized fast path.
        assert not table.is_numeric

    def test_equality_batch_does_not_match_neighbours(self):
        table = CompiledHistogram([BIG, BIG + 1], [5.0, 7.0])
        # Old numeric path: searchsorted on collapsed codes returned 5.0
        # for BIG + 1 (its neighbour's frequency) and 0.0-vs-5.0
        # randomly for misses like BIG + 2.
        assert table.equality(BIG) == 5.0
        assert table.equality(BIG + 1) == 7.0
        assert table.equality(BIG + 2) == 0.0
        batch = table.equality_batch([BIG, BIG + 1, BIG + 2])
        assert np.array_equal(batch, np.asarray([5.0, 7.0, 0.0]))

    def test_join_with_collapsed_codes_is_exact(self):
        table = CompiledHistogram([BIG, BIG + 1], [5.0, 7.0])
        # Old path handed duplicate codes to intersect1d(assume_unique=True),
        # whose result is undefined; the exact join is Σ f̂·f̂ = 25 + 49.
        assert table.join_with(table) == pytest.approx(74.0)

    def test_collapse_free_large_ints_keep_fast_path(self):
        # Distinct codes ⇒ no demotion; suspect hits are re-verified
        # exactly, so a probe that rounds onto a stored code still misses.
        table = CompiledHistogram([BIG, BIG + 2], [5.0, 7.0])
        assert table.is_numeric
        assert table.equality(BIG + 1) == 0.0
        batch = table.equality_batch([BIG, BIG + 1, BIG + 2])
        assert np.array_equal(batch, np.asarray([5.0, 0.0, 7.0]))

    def test_lossy_code_demotes_even_without_collapse(self):
        # 2**53 + 1 rounds to 2**53: unique *within* its table, so the
        # collapse check alone let it stay numeric — but the rounded code
        # collided with another table's exact 2**53 in join_with (returned
        # 15.0 here) and false-matched float probes landing on the code.
        lossy = CompiledHistogram([BIG + 1], [3.0])
        exact = CompiledHistogram([BIG], [5.0])
        assert not lossy.is_numeric
        assert exact.is_numeric
        assert lossy.join_with(exact) == 0.0
        assert lossy.equality(float(BIG)) == 0.0
        assert np.array_equal(lossy.equality_batch([float(BIG)]), np.asarray([0.0]))

    def test_int_beyond_float64_demotes(self):
        table = CompiledHistogram([10**400, 0], [3.0, 1.0])
        assert not table.is_numeric
        assert table.equality(10**400) == 3.0

    def test_compact_collapse_demotes_too(self):
        compact = CompiledCompact({BIG: 5.0, BIG + 1: 7.0}, 0, 0.0)
        assert not compact.is_numeric
        assert compact.frequency(BIG + 1) == 7.0
        batch = compact.frequency_batch([BIG, BIG + 1])
        assert np.array_equal(batch, np.asarray([5.0, 7.0]))


class TestMembershipUnhashable:
    def test_membership_degrades_like_equality(self):
        table = CompiledHistogram(["a", "b", "c"], [6.0, 3.0, 1.0])
        unhashable = [1, 2]
        # equality documents the 0.0 degradation …
        assert table.equality(unhashable) == 0.0
        # … and membership used to raise TypeError from its dedup set.
        assert table.membership(["a", unhashable]) == table.equality("a")

    def test_membership_all_unhashable_is_zero(self):
        table = CompiledHistogram(["a"], [6.0])
        assert table.membership([[1], {2: 3}]) == 0.0

    def test_service_surfaces_unhashable_reason(self):
        from repro.engine.analyze import analyze_relation
        from repro.engine.catalog import StatsCatalog
        from repro.engine.relation import Relation

        catalog = StatsCatalog()
        relation = Relation.from_columns("R", {"a": [1, 1, 2, 3]})
        analyze_relation(relation, "a", catalog, kind="serial", buckets=2)
        service = EstimationService(catalog)
        traces = []
        mass = service.estimate_membership(
            "R", "a", [1, [2, 3]], trace=traces.append
        )
        assert mass == service.estimate_equality("R", "a", 1)
        degraded = [t for t in traces if t.degraded]
        assert degraded and degraded[0].reason == REASON_UNHASHABLE_VALUE
        assert service.stats().degradation_reasons.get(REASON_UNHASHABLE_VALUE) == 1


class TestNaNDivergence:
    def test_histogram_nan_probe_is_zero_mass_both_paths(self):
        nan = float("nan")
        # The same NaN *object* as a domain value: the old scalar path hit
        # it through dict identity (7.0) while the batch missed (0.0).
        table = CompiledHistogram([1.0, nan], [5.0, nan_freq := 7.0])
        assert nan_freq == 7.0
        assert table.equality(nan) == 0.0
        assert np.array_equal(table.equality_batch([nan]), np.asarray([0.0]))
        assert np.array_equal(
            table.equality_batch([1.0, nan]), np.asarray([5.0, 0.0])
        )

    def test_membership_with_nan(self):
        nan = float("nan")
        table = CompiledHistogram([1.0, nan], [5.0, 7.0])
        assert table.membership([nan, 1.0]) == 5.0

    def test_nan_joins_nothing(self):
        nan = float("nan")
        numeric = CompiledHistogram([1.0, nan], [5.0, 7.0])
        exact = CompiledHistogram([1.0, nan, "x"], [2.0, 3.0, 4.0])
        # Vectorized side: NaN != NaN kills the intersection; the exact
        # dict loop must skip NaN keys the same way.
        assert numeric.join_with(numeric) == pytest.approx(25.0)
        assert exact.join_with(exact) == pytest.approx(4.0 + 16.0)

    def test_open_range_bounds_keep_prefix_endpoints(self):
        nan = float("nan")
        table = CompiledHistogram([1.0, nan], [5.0, 7.0])
        # A None bound means the prefix endpoint itself (all stored mass).
        assert table.range_sum(None, None) == 12.0
        # The old batch path encoded None as ±inf, whose searchsorted
        # stops short of trailing NaN codes — it returned 5.0 here.
        assert np.array_equal(
            table.range_batch([None, 1.0], [None, None]),
            np.asarray([12.0, 12.0]),
        )

    def test_compact_nan_never_gets_remainder(self):
        nan = float("nan")
        compact = CompiledCompact({1.0: 5.0}, 3, 2.0)
        # Old behaviour: NaN fell into the implicit remainder bucket (2.0).
        assert compact.frequency(nan) == 0.0
        assert np.array_equal(
            compact.frequency_batch([nan, 1.0, 99.0]),
            np.asarray([0.0, 5.0, 2.0]),
        )

    def test_scalar_batch_identity_with_nan_mixed_in(self):
        nan = float("nan")
        table = CompiledHistogram([1.0, 2.0, 3.0], [5.0, 3.0, 1.0])
        probes = [nan, 1.0, 2.5, 3.0, -nan]
        batch = table.equality_batch(probes)
        scalar = [table.equality(v) for v in probes]
        assert np.array_equal(batch, np.asarray(scalar))

    @pytest.mark.parametrize("right_nan", ["none", "same-object", "distinct-object"])
    def test_compact_join_nan_joins_nothing(self, right_nan):
        nan = float("nan")
        right = {2: 7.0}
        if right_nan != "none":
            right[nan if right_nan == "same-object" else float("nan")] = 9.0
        catalog = StatsCatalog()
        for relation, explicit, count, average in (
            ("L", {nan: 50.0, 1: 10.0}, 3, 2.0),
            ("R", right, 4, 5.0),
        ):
            compact = CompactEndBiased(explicit, count, average)
            catalog.put(
                CatalogEntry(relation, "a", "sampled", None, compact, 8, compact.total)
            )
        # Old behaviour: 344.0 with NaN on the left only (it took the
        # right remainder); with NaN on both sides 94.0 for one shared
        # object and 362.0 for two, so the answer hung on object identity.
        scalar = EstimationService(catalog).estimate_join("L", "a", "R", "a")
        batch = EstimationService(catalog).estimate_batch([JoinProbe("L", "a", "R", "a")])
        assert scalar == 94.0
        assert np.array_equal(batch, np.asarray([94.0]))
