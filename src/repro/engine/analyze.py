"""ANALYZE: statistics collection into the catalog.

Runs the ``Matrix`` algorithm over a relation's column (one counting
scan) and builds the requested histogram, storing it — and, for end-biased
histograms, its compact catalog form — in the :class:`StatsCatalog`.
This is the operational face of Section 4: per-relation, query-independent
statistics, justified by Theorem 3.3.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.core.biased import v_opt_bias_hist
from repro.core.frequency import AttributeDistribution
from repro.core.heuristic import equi_depth_histogram, equi_width_histogram, trivial_histogram
from repro.core.histogram import Histogram
from repro.core.serial import v_optimal_serial_histogram
from repro.engine.catalog import CatalogEntry, CompactEndBiased, StatsCatalog
from repro.engine.relation import Relation
from repro.engine.sampling import sampled_end_biased_histogram
from repro.obs.tracing import span
from repro.util.validation import ensure_positive_int

#: Histogram kinds ANALYZE can build.
ANALYZE_KINDS = ("trivial", "equi-width", "equi-depth", "end-biased", "serial", "sampled")


def _build_histogram(
    kind: str, distribution: AttributeDistribution, buckets: int
) -> Histogram:
    buckets = min(buckets, distribution.domain_size)
    if kind == "trivial":
        return trivial_histogram(distribution)
    if kind == "equi-width":
        return equi_width_histogram(distribution, buckets)
    if kind == "equi-depth":
        return equi_depth_histogram(distribution, buckets)
    if kind == "end-biased":
        return v_opt_bias_hist(
            distribution.frequencies, buckets, values=distribution.values
        )
    if kind == "serial":
        return v_optimal_serial_histogram(
            distribution.frequencies, buckets, values=distribution.values, method="dp"
        )
    raise ValueError(f"unknown histogram kind {kind!r}; expected one of {ANALYZE_KINDS}")


def analyze_relation(
    relation: Relation,
    attribute: str,
    catalog: StatsCatalog,
    *,
    kind: str = "end-biased",
    buckets: int = 10,
) -> CatalogEntry:
    """Collect statistics for one attribute and store them in *catalog*.

    ``kind="sampled"`` uses the Section 4.2 shortcut (Space-Saving sketch,
    no exact frequency distribution); every other kind runs the exact
    ``Matrix`` step first, whose domain size is the distinct count.  The
    default mirrors DB2's practice: an end-biased histogram with ~10
    explicitly stored values.  The work runs in an ``engine.analyze`` span
    tagged with the kind and the bucket count.
    """
    buckets = ensure_positive_int(buckets, "buckets")
    if relation.cardinality == 0:
        raise ValueError(f"cannot analyze empty relation {relation.name!r}")

    with span("engine.analyze", kind=kind, buckets=buckets):
        histogram: Optional[Histogram] = None
        compact: Optional[CompactEndBiased] = None
        if kind == "sampled":
            distinct_count = relation.distinct_count(attribute)
            compact = sampled_end_biased_histogram(
                relation.column(attribute),
                buckets,
                relation.cardinality,
                distinct_count,
            )
        else:
            distribution = relation.frequency_distribution(attribute)
            histogram = _build_histogram(kind, distribution, buckets)
            distinct_count = distribution.domain_size
            # The compact form's "missing bucket" rule answers a value
            # outside the domain with the remainder average: an end-biased
            # convention, so no other kind stores one.
            if kind == "end-biased":
                compact = CompactEndBiased.from_histogram(histogram)
        entry = CatalogEntry(
            relation=relation.name,
            attribute=attribute,
            kind=kind,
            histogram=histogram,
            compact=compact,
            distinct_count=distinct_count,
            total_tuples=float(relation.cardinality),
        )
        return catalog.put(entry)


def analyze_database(
    relations: Iterable[Relation],
    catalog: StatsCatalog,
    *,
    kind: str = "end-biased",
    buckets: int = 10,
    attributes: Optional[dict[str, Sequence[str]]] = None,
) -> list[CatalogEntry]:
    """ANALYZE every attribute of every relation (or a chosen subset).

    *attributes* optionally restricts collection per relation name; by
    default all attributes are analyzed — statistics collection "is an
    infrequent operation", as the paper puts it.
    """
    if not isinstance(catalog, StatsCatalog):
        raise TypeError(f"catalog must be a StatsCatalog, got {type(catalog).__name__}")
    entries = []
    for relation in relations:
        names = (
            attributes.get(relation.name, relation.schema.names)
            if attributes is not None
            else relation.schema.names
        )
        for attribute in names:
            entries.append(
                analyze_relation(
                    relation, attribute, catalog, kind=kind, buckets=buckets
                )
            )
    return entries
