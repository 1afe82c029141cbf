"""Query planning: resolution, classification, estimation, join ordering.

The planner implements the optimizer pipeline the paper's histograms feed:

1. resolve table bindings and column references;
2. classify WHERE conjuncts into **selections** (column vs literal — the
   disjunctive-equality family of Section 6) and **equality joins**
   (column vs column across tables — the paper's query class);
3. estimate per-relation selection selectivities and per-edge join
   selectivities from the statistics catalog;
4. order the joins with the System-R dynamic program.

Non-equality joins across relations are rejected — they are outside the
paper's tree-equality-join class (its own "future work").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.engine.catalog import CatalogEntry, StatsCatalog
from repro.engine.relation import Relation
from repro.optimizer.cardinality import (
    DEFAULT_EQ_SELECTIVITY,
    DEFAULT_RANGE_SELECTIVITY,
    CardinalityEstimator,
)
from repro.serve.frame import EqualityProbe, Probe, RangeProbe
from repro.serve.service import EstimationService
from repro.optimizer.joinorder import JoinEdge, JoinGraph, optimal_join_order
from repro.optimizer.plans import Plan
from repro.sql.ast import (
    BetweenPredicate,
    ColumnRef,
    Comparison,
    InPredicate,
    Literal,
    Predicate,
    SelectStatement,
)

class SqlPlanError(ValueError):
    """Raised when a statement cannot be planned against the database."""


@dataclass(frozen=True)
class PlannedQuery:
    """The planner's output: classified predicates plus estimates."""

    statement: SelectStatement
    bindings: dict[str, Relation]
    output_columns: tuple[ColumnRef, ...]
    selections: dict[str, tuple[Predicate, ...]]
    join_edges: tuple[JoinEdge, ...]
    selection_selectivities: dict[str, float]
    join_plan: Optional[Plan]
    estimated_rows: float
    group_by: tuple[ColumnRef, ...] = ()
    estimated_groups: Optional[float] = None
    #: True only when the WHERE clause is *provably* false (a constant
    #: literal comparison) — never inferred from zero estimates, which are
    #: approximations.
    constant_false: bool = False

    @property
    def estimated_output_rows(self) -> float:
        """Rows the query returns: groups when grouped, tuples otherwise."""
        if self.group_by:
            assert self.estimated_groups is not None
            return self.estimated_groups
        return self.estimated_rows


def _resolve_column(
    ref: ColumnRef, bindings: dict[str, Relation]
) -> ColumnRef:
    """Qualify *ref*, validating existence and ambiguity."""
    if ref.table is not None:
        if ref.table not in bindings:
            raise SqlPlanError(f"unknown table {ref.table!r} in {ref}")
        if ref.column not in bindings[ref.table].schema:
            raise SqlPlanError(
                f"table {ref.table!r} has no column {ref.column!r}"
            )
        return ref
    owners = [
        binding
        for binding, relation in bindings.items()
        if ref.column in relation.schema
    ]
    if not owners:
        raise SqlPlanError(f"unknown column {ref.column!r}")
    if len(owners) > 1:
        raise SqlPlanError(
            f"ambiguous column {ref.column!r}: present in {sorted(owners)}"
        )
    return ColumnRef(ref.column, table=owners[0])


def _resolve_predicate(pred: Predicate, bindings: dict[str, Relation]) -> Predicate:
    if isinstance(pred, Comparison):
        left = (
            _resolve_column(pred.left, bindings)
            if isinstance(pred.left, ColumnRef)
            else pred.left
        )
        right = (
            _resolve_column(pred.right, bindings)
            if isinstance(pred.right, ColumnRef)
            else pred.right
        )
        # Canonicalise literal-first comparisons to column-first.
        if isinstance(left, Literal) and isinstance(right, ColumnRef):
            flipped = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}.get(
                pred.operator, pred.operator
            )
            return Comparison(right, flipped, left)
        return Comparison(left, pred.operator, right)
    if isinstance(pred, InPredicate):
        return InPredicate(
            _resolve_column(pred.column, bindings), pred.values, pred.negated
        )
    if isinstance(pred, BetweenPredicate):
        return BetweenPredicate(
            _resolve_column(pred.column, bindings), pred.low, pred.high
        )
    raise SqlPlanError(f"unsupported predicate {pred!r}")


def _rebind_catalog(
    catalog: StatsCatalog,
    bindings: dict[str, Relation],
    base_names: dict[str, str],
) -> StatsCatalog:
    """Re-key catalog entries from base-relation names to query bindings."""
    rebound = StatsCatalog()
    for binding, relation in bindings.items():
        for attribute in relation.schema.names:
            entry = catalog.get(base_names[binding], attribute)
            if entry is None:
                # No ANALYZE yet: synthesize a uniform-assumption entry so
                # planning degrades gracefully instead of failing — exactly
                # what a system without statistics does.
                entry = CatalogEntry(
                    relation=binding,
                    attribute=attribute,
                    kind="none",
                    histogram=None,
                    compact=None,
                    distinct_count=(
                        relation.distinct_count(attribute)
                        if relation.cardinality
                        else 0
                    ),
                    total_tuples=float(relation.cardinality),
                )
                rebound.put(entry)
                continue
            clone = CatalogEntry(
                relation=binding,
                attribute=attribute,
                kind=entry.kind,
                histogram=entry.histogram,
                compact=entry.compact,
                distinct_count=entry.distinct_count,
                total_tuples=entry.total_tuples,
            )
            rebound.put(clone)
    return rebound


#: How a deferred probe's mass becomes a selectivity factor.
_COMBINE_MASS = "mass"  # min(1, mass/total)
_COMBINE_NEGATED = "negated"  # max(0, 1 - mass/total)


def _combine_selectivity(combine: str, mass: float, total: float) -> float:
    if combine == _COMBINE_NEGATED:
        return max(0.0, 1.0 - mass / total)
    return min(1.0, mass / total)


def _selection_probe(
    pred: Predicate,
    binding: str,
    attribute: str,
    entry: Optional[CatalogEntry],
    service: EstimationService,
) -> tuple[Optional[float], Optional[tuple[Probe, str, float]]]:
    """Classify *pred* into an immediate selectivity or a deferred probe.

    Returns ``(selectivity, None)`` when the answer needs no histogram
    mass (magic-constant fallbacks, constant predicates) or is served by
    a scalar-only entry point (``IN`` membership, which dedups and clamps
    internally), and ``(None, (probe, combine, total))`` when the mass
    should be fetched through the service's batched probe interface —
    ``plan_query`` collects every deferred probe of a statement into
    **one** ``estimate_batch`` call.
    """
    if entry is None or entry.total_tuples <= 0:
        if isinstance(pred, Comparison) and pred.operator == "=":
            return DEFAULT_EQ_SELECTIVITY, None
        return DEFAULT_RANGE_SELECTIVITY, None
    total = entry.total_tuples
    has_histogram = entry.histogram is not None and entry.histogram.values is not None

    if isinstance(pred, Comparison):
        assert isinstance(pred.right, Literal)
        value = pred.right.value
        if pred.operator == "=":
            return None, (
                EqualityProbe(binding, attribute, value),
                _COMBINE_MASS,
                total,
            )
        if pred.operator in ("<>", "!="):
            return None, (
                EqualityProbe(binding, attribute, value),
                _COMBINE_NEGATED,
                total,
            )
        if not has_histogram:
            return DEFAULT_RANGE_SELECTIVITY, None
        bounds = {
            "<": dict(high=value, include_high=False),
            "<=": dict(high=value, include_high=True),
            ">": dict(low=value, include_low=False),
            ">=": dict(low=value, include_low=True),
        }[pred.operator]
        return None, (
            RangeProbe(binding, attribute, **bounds),
            _COMBINE_MASS,
            total,
        )
    if isinstance(pred, InPredicate):
        mass = service.estimate_membership(
            binding, attribute, [v.value for v in pred.values]
        )
        fraction = min(1.0, mass / total)
        return (max(0.0, 1.0 - fraction) if pred.negated else fraction), None
    if isinstance(pred, BetweenPredicate):
        if not has_histogram:
            return DEFAULT_RANGE_SELECTIVITY, None
        return None, (
            RangeProbe(binding, attribute, pred.low.value, pred.high.value),
            _COMBINE_MASS,
            total,
        )
    raise SqlPlanError(f"unsupported predicate {pred!r}")


def _selection_selectivity(
    pred: Predicate,
    binding: str,
    attribute: str,
    entry: Optional[CatalogEntry],
    service: EstimationService,
) -> float:
    """Estimated fraction of a relation's tuples satisfying *pred*.

    The scalar form of :func:`_selection_probe`: a deferred probe is
    answered through a one-element ``estimate_batch`` call, so this
    returns bit-identical floats to the batched planning path.
    """
    selectivity, deferred = _selection_probe(pred, binding, attribute, entry, service)
    if deferred is None:
        assert selectivity is not None
        return selectivity
    probe, combine, total = deferred
    mass = float(service.estimate_batch([probe])[0])
    return _combine_selectivity(combine, mass, total)


def plan_query(
    statement: SelectStatement,
    relations: dict[str, Relation],
    catalog: StatsCatalog,
) -> PlannedQuery:
    """Plan *statement* against *relations* using *catalog* statistics.

    Estimates go through the estimation service's default ``"fallback"``
    policy, so planning over a partially ANALYZEd catalog degrades
    per-probe instead of aborting, per the serving layer's
    fault-isolation contract.
    """
    bindings: dict[str, Relation] = {}
    base_names: dict[str, str] = {}
    for table in statement.tables:
        if table.name not in relations:
            raise SqlPlanError(f"unknown table {table.name!r}")
        base = relations[table.name]
        base_names[table.binding] = base.name
        if table.binding == base.name:
            bindings[table.binding] = base
        else:
            bindings[table.binding] = Relation(
                table.binding, base.schema, base.rows()
            )

    resolved = [_resolve_predicate(p, bindings) for p in statement.predicates]
    output_columns = tuple(
        _resolve_column(c, bindings) for c in statement.columns
    )
    group_by = tuple(_resolve_column(c, bindings) for c in statement.group_by)
    if group_by:
        missing = [str(c) for c in output_columns if c not in group_by]
        if missing:
            raise SqlPlanError(
                f"selected columns must appear in GROUP BY: {missing}"
            )

    selections: dict[str, list[Predicate]] = {b: [] for b in bindings}
    join_edges: list[JoinEdge] = []
    for pred in resolved:
        if isinstance(pred, Comparison) and pred.is_join():
            left, right = pred.left, pred.right
            if left.table == right.table:
                selections[left.table].append(pred)  # row-local comparison
                continue
            if pred.operator != "=":
                raise SqlPlanError(
                    f"non-equality join {left} {pred.operator} {right} is "
                    "outside the supported (tree equality-join) query class"
                )
            join_edges.append(
                JoinEdge(left.table, left.column, right.table, right.column)
            )
        elif isinstance(pred, Comparison) and isinstance(pred.left, Literal):
            # literal-vs-literal: constant predicate.
            selections.setdefault("", []).append(pred)
        else:
            binding = (
                pred.left.table if isinstance(pred, Comparison) else pred.column.table
            )
            selections[binding].append(pred)

    constant_preds = selections.pop("", [])
    for pred in constant_preds:
        if not _evaluate_literal_comparison(pred):
            # Constant-false WHERE: empty result regardless of data.
            return PlannedQuery(
                statement,
                bindings,
                output_columns,
                {b: tuple(p) for b, p in selections.items()},
                tuple(join_edges),
                {b: 0.0 for b in bindings},
                None,
                0.0,
                group_by,
                0.0 if group_by else None,
                constant_false=True,
            )

    rebound = _rebind_catalog(catalog, bindings, base_names)
    estimator = CardinalityEstimator(rebound)
    service = estimator.service

    # One pass classifies every selection predicate; the deferred
    # histogram probes of the whole statement are answered by a single
    # estimate_batch call, and the factors are then multiplied in the
    # original per-predicate order (so the floats match the scalar path
    # exactly).
    factor_sources: dict[str, list[Union[float, int]]] = {}
    deferred_probes: list[Probe] = []
    deferred_combines: list[tuple[str, float]] = []
    for binding, preds in selections.items():
        sources: list[Union[float, int]] = []
        for pred in preds:
            if isinstance(pred, Comparison) and pred.is_join():
                # Same-table column comparison: heuristic selectivity.
                if pred.operator == "=":
                    entry = rebound.get(binding, pred.left.column)
                    distinct = entry.distinct_count if entry else 10
                    sources.append(1.0 / max(distinct, 1))
                else:
                    sources.append(DEFAULT_RANGE_SELECTIVITY)
                continue
            attribute = (
                pred.left.column if isinstance(pred, Comparison) else pred.column.column
            )
            entry = rebound.get(binding, attribute)
            immediate, deferred = _selection_probe(
                pred, binding, attribute, entry, service
            )
            if deferred is None:
                assert immediate is not None
                sources.append(immediate)
            else:
                probe, combine, total = deferred
                sources.append(len(deferred_probes))
                deferred_probes.append(probe)
                deferred_combines.append((combine, total))
        factor_sources[binding] = sources

    masses = (
        service.estimate_batch(deferred_probes) if deferred_probes else None
    )
    selectivities: dict[str, float] = {}
    for binding, sources in factor_sources.items():
        selectivity = 1.0
        for source in sources:
            if isinstance(source, float):
                selectivity *= source
            else:
                combine, total = deferred_combines[source]
                selectivity *= _combine_selectivity(
                    combine, float(masses[source]), total
                )
        selectivities[binding] = selectivity

    join_plan: Optional[Plan] = None
    estimated = 1.0
    for binding, relation in bindings.items():
        estimated *= relation.cardinality * selectivities[binding]
    if len(bindings) > 1:
        try:
            graph = JoinGraph(list(bindings.values()), join_edges)
        except ValueError as error:
            raise SqlPlanError(
                f"join predicates must form a tree over the FROM tables: {error}"
            ) from error
        try:
            for edge in join_edges:
                estimated *= estimator.join_selectivity(
                    edge.left_relation,
                    edge.left_attribute,
                    edge.right_relation,
                    edge.right_attribute,
                )
            join_plan = optimal_join_order(graph, estimator)
        except KeyError as error:
            raise SqlPlanError(
                f"missing statistics for join planning; run ANALYZE first ({error})"
            ) from error

    estimated_groups: Optional[float] = None
    if group_by:
        # Group-count estimate: the product of the grouping columns'
        # distinct counts (attribute independence), capped by the estimated
        # input cardinality — a classical distinct-value model.
        distinct_product = 1.0
        for ref in group_by:
            entry = rebound.get(ref.table, ref.column)
            distinct_product *= max(1, entry.distinct_count if entry else 10)
        estimated_groups = min(distinct_product, max(estimated, 0.0))

    return PlannedQuery(
        statement,
        bindings,
        output_columns,
        {b: tuple(p) for b, p in selections.items()},
        tuple(join_edges),
        selectivities,
        join_plan,
        estimated,
        group_by,
        estimated_groups,
    )


def _evaluate_literal_comparison(pred: Comparison) -> bool:
    left = pred.left.value
    right = pred.right.value
    return {
        "=": left == right,
        "<>": left != right,
        "!=": left != right,
        "<": left < right,
        "<=": left <= right,
        ">": left > right,
        ">=": left >= right,
    }[pred.operator]
