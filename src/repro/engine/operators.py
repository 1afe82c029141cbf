"""Physical operators: selection, projection, hash join, cross product.

These materialise their results as new :class:`~repro.engine.relation.Relation`
objects — sufficient for the ground-truth executor and the optimizer-cost
experiments at reproduction scale.  Output attribute names are qualified
(``relation.attribute``) on collision, mirroring SQL disambiguation.
"""

from __future__ import annotations

from typing import Callable, Hashable, Sequence

from repro.analysis.contracts import contracts_enabled, require
from repro.engine.relation import Relation
from repro.engine.schema import Attribute, Schema


def _ensure_relation(value: Relation, name: str) -> Relation:
    """Boundary check: operators only accept engine relations."""
    if not isinstance(value, Relation):
        raise TypeError(f"{name} must be a Relation, got {type(value).__name__}")
    return value


def select(relation: Relation, predicate: Callable[[tuple], bool], name: str = "") -> Relation:
    """Filter tuples by *predicate* (a function of the raw row tuple)."""
    _ensure_relation(relation, "relation")
    if not callable(predicate):
        raise TypeError("predicate must be callable on a row tuple")
    result_name = name or f"select({relation.name})"
    rows = [row for row in relation.rows() if predicate(row)]
    result = Relation(result_name, relation.schema, rows)
    if contracts_enabled():
        require(
            result.cardinality <= relation.cardinality,
            "selection must not increase cardinality",
        )
    return result


def select_equals(relation: Relation, attribute: str, value: Hashable, name: str = "") -> Relation:
    """Equality selection ``attribute = value``."""
    _ensure_relation(relation, "relation")
    position = relation.schema.position(attribute)
    return select(
        relation,
        lambda row: row[position] == value,
        name or f"{relation.name}[{attribute}={value!r}]",
    )


def project(relation: Relation, attributes: Sequence[str], name: str = "") -> Relation:
    """Bag projection onto *attributes* (duplicates preserved)."""
    _ensure_relation(relation, "relation")
    positions = [relation.schema.position(a) for a in attributes]
    schema = Schema([relation.schema.attributes[p] for p in positions])
    rows = [tuple(row[p] for p in positions) for row in relation.rows()]
    return Relation(name or f"project({relation.name})", schema, rows)


def _merged_schema(left: Relation, right: Relation) -> Schema:
    attributes: list[Attribute] = []
    left_names = set(left.schema.names)
    for attribute in left.schema:
        attributes.append(attribute)
    for attribute in right.schema:
        if attribute.name in left_names:
            attributes.append(Attribute(f"{right.name}.{attribute.name}", attribute.dtype))
        else:
            attributes.append(attribute)
    return Schema(attributes)


def hash_join(
    left: Relation,
    right: Relation,
    left_attribute: str,
    right_attribute: str,
    name: str = "",
) -> Relation:
    """Equality hash join: build on the smaller input, probe with the larger.

    The result concatenates the full tuples of both sides, so its
    cardinality is the exact join size — the quantity all histogram
    estimates approximate.

    Contract (``REPRO_CONTRACTS=1``): the materialised cardinality must equal
    the frequency-product count of :func:`join_size` (Theorem 2.1).
    """
    _ensure_relation(left, "left")
    _ensure_relation(right, "right")
    build, probe = (left, right) if left.cardinality <= right.cardinality else (right, left)
    build_attr = left_attribute if build is left else right_attribute
    probe_attr = right_attribute if probe is right else left_attribute

    build_position = build.schema.position(build_attr)
    table: dict = {}
    for row in build.rows():
        table.setdefault(row[build_position], []).append(row)

    probe_position = probe.schema.position(probe_attr)
    joined_rows = []
    left_first = build is left
    for row in probe.rows():
        for match in table.get(row[probe_position], ()):  # build-side rows
            if left_first:
                joined_rows.append(match + row)
            else:
                joined_rows.append(row + match)

    schema = _merged_schema(left, right)
    result = Relation(name or f"({left.name} ⋈ {right.name})", schema, joined_rows)
    if contracts_enabled():
        expected = join_size(left, right, left_attribute, right_attribute)
        require(
            result.cardinality == expected,
            f"hash_join materialised {result.cardinality} rows but the "
            f"frequency product (Theorem 2.1) counts {expected}",
        )
    return result


def join_size(
    left: Relation, right: Relation, left_attribute: str, right_attribute: str
) -> int:
    """Exact join cardinality without materialising the result.

    Counts matches through the per-value frequency product — Theorem 2.1
    evaluated directly on hash-counted frequencies.
    """
    _ensure_relation(left, "left")
    _ensure_relation(right, "right")
    left_counts: dict = {}
    for value in left.column(left_attribute):
        left_counts[value] = left_counts.get(value, 0) + 1
    total = 0
    for value in right.column(right_attribute):
        total += left_counts.get(value, 0)
    return total


def cross_product(left: Relation, right: Relation, name: str = "") -> Relation:
    """Cartesian product (used only by tests at tiny scale)."""
    _ensure_relation(left, "left")
    _ensure_relation(right, "right")
    schema = _merged_schema(left, right)
    inner = list(right.rows())
    rows = [l + r for l in left.rows() for r in inner]
    return Relation(name or f"({left.name} × {right.name})", schema, rows)
