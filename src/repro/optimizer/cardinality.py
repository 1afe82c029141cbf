"""Histogram-backed cardinality estimation for the optimizer.

Estimates selection and equality-join cardinalities from
:class:`~repro.engine.catalog.StatsCatalog` entries.  Join estimation follows
the structure production systems derived from this line of work (e.g. the
most-common-value logic of DB2 and PostgreSQL): explicitly stored
frequencies are matched exactly, and the implicit remainders are matched
under uniformity + containment assumptions.

Since the serving-layer redesign, this class is a thin scalar adapter over
:class:`repro.serve.EstimationService`: every estimate is answered from the
service's compiled lookup tables, so optimizer scalar calls, planner
selectivities, and batched service probes all return bit-identical floats
and share one compiled-table cache.
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.engine.catalog import StatsCatalog
from repro.serve.service import (
    DEFAULT_EQ_SELECTIVITY,
    DEFAULT_RANGE_SELECTIVITY,
    EstimationService,
)

__all__ = [
    "DEFAULT_EQ_SELECTIVITY",
    "DEFAULT_RANGE_SELECTIVITY",
    "CardinalityEstimator",
]


class CardinalityEstimator:
    """Estimates operator output cardinalities from catalog statistics.

    Each estimator answers through its own private
    :class:`~repro.serve.EstimationService` over *catalog*, under the
    service's default ``"fallback"`` error policy.
    """

    def __init__(self, catalog: StatsCatalog):
        if not isinstance(catalog, StatsCatalog):
            raise TypeError(
                f"catalog must be a StatsCatalog, got {type(catalog).__name__}"
            )
        self._service = EstimationService(catalog)

    @property
    def service(self) -> EstimationService:
        """The estimation service answering this estimator's probes."""
        return self._service

    # ------------------------------------------------------------------
    # Base-relation and selection estimates
    # ------------------------------------------------------------------

    def scan_cardinality(self, relation: str) -> float:
        """Tuple count of *relation* according to the catalog.

        Deliberately strict like the service helper it forwards to: the DP
        join orderer treats an un-ANALYZEd base relation as a planning
        error, not an estimate to degrade.
        """
        # The strict introspection adapter itself; callers opt into KeyError.
        return self._service.scan_cardinality(relation)  # repolint: disable=R006

    def equality_selection(self, relation: str, attribute: str, value: Hashable) -> float:
        """Estimated cardinality of ``σ_{attribute = value}(relation)``."""
        return self._service.estimate_equality(relation, attribute, value)

    def range_selection(
        self,
        relation: str,
        attribute: str,
        low: Optional[float] = None,
        high: Optional[float] = None,
    ) -> float:
        """Estimated cardinality of a range selection.

        Requires a value-aware histogram (Section 6: ranges are disjunctive
        equality selections); falls back to a 1/3 selectivity guess without
        one, mirroring System R defaults.
        """
        return self._service.estimate_range(relation, attribute, low, high)

    # ------------------------------------------------------------------
    # Join estimates
    # ------------------------------------------------------------------

    def join_cardinality(
        self,
        left_relation: str,
        left_attribute: str,
        right_relation: str,
        right_attribute: str,
    ) -> float:
        """Estimated equality-join cardinality between two base relations."""
        return self._service.estimate_join(
            left_relation, left_attribute, right_relation, right_attribute
        )

    def join_selectivity(
        self,
        left_relation: str,
        left_attribute: str,
        right_relation: str,
        right_attribute: str,
    ) -> float:
        """Join cardinality normalised by the Cartesian product size.

        The DP join orderer composes multi-join estimates multiplicatively
        from these per-edge selectivities (the classical independence
        assumption).
        """
        # Selectivity needs the exact row counts; an unknown relation here
        # is a planner-input error, not an estimate to degrade.
        rows_left = self.scan_cardinality(left_relation)  # repolint: disable=R006
        rows_right = self.scan_cardinality(right_relation)  # repolint: disable=R006
        if rows_left == 0 or rows_right == 0:
            return 0.0
        estimate = self.join_cardinality(
            left_relation, left_attribute, right_relation, right_attribute
        )
        return estimate / (rows_left * rows_right)
