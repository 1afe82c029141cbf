"""In-memory relations: named bags of tuples over a schema, stored as columns."""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro.core.frequency import AttributeDistribution
from repro.engine.schema import Attribute, Schema
from repro.util.rng import RandomSource, derive_rng


def _transpose(rows: list[tuple], width: int) -> list[list]:
    """The *width* columns of equal-arity *rows*, one list each."""
    return [list(map(itemgetter(position), rows)) for position in range(width)]


class Relation:
    """A named bag (multiset) of tuples, stored as one list per attribute.

    A tuple is the values at one position across the column lists, aligned
    with the schema.  :meth:`rows` builds the tuples on demand and
    :meth:`column` returns a copy of one list; the ``Matrix`` step
    (:meth:`frequency_distribution`) counts the stored list itself.  The
    class supports the handful of operations the reproduction needs:
    column extraction, insertion/deletion (for histogram-maintenance
    experiments), and generation from frequency distributions (the inverse
    of the ``Matrix`` statistics step, used to materialise synthetic
    relations whose frequency sets are known exactly).
    """

    __slots__ = ("name", "_schema", "_columns")

    def __init__(self, name: str, schema: Schema, rows: Optional[Iterable[tuple]] = None):
        if not name or not isinstance(name, str):
            raise ValueError(f"relation name must be a non-empty string, got {name!r}")
        if not isinstance(schema, Schema):
            raise TypeError(f"schema must be a Schema, got {type(schema).__name__}")
        self.name = name
        self._schema = schema
        rows = [tuple(row) for row in rows or ()]
        schema.validate_rows(rows)
        self._columns = _transpose(rows, len(schema))

    @classmethod
    def from_columns(
        cls, name: str, columns: dict[str, Sequence]
    ) -> "Relation":
        """Build a relation from parallel column sequences.

        Each sequence is copied into a list as it is, without
        :meth:`insert`'s per-row check, which cannot fail here: the schema
        has no types, and the equal-length check already fixes every row's
        arity.
        """
        if not columns:
            raise ValueError("at least one column is required")
        lengths = {len(values) for values in columns.values()}
        if len(lengths) != 1:
            raise ValueError(f"columns must have equal lengths, got {lengths}")
        relation = cls(name, Schema([Attribute(column_name) for column_name in columns]))
        relation._columns = [list(values) for values in columns.values()]
        return relation

    @classmethod
    def from_distribution(
        cls,
        name: str,
        attribute: str,
        distribution: AttributeDistribution,
        *,
        shuffle: RandomSource = None,
    ) -> "Relation":
        """Materialise a single-attribute relation with given value frequencies.

        Frequencies are rounded to the nearest integer tuple counts.  With
        *shuffle* the rows are permuted so physical order carries no
        information (as in a real heap file).
        """
        values = []
        for value, freq in zip(distribution.values, distribution.frequencies):
            values.extend([value] * int(round(float(freq))))
        if shuffle is not None:
            gen = derive_rng(shuffle)
            order = gen.permutation(len(values))
            values = [values[i] for i in order]
        return cls.from_columns(name, {attribute: values})

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def cardinality(self) -> int:
        """Number of tuples (``T`` in the paper's notation)."""
        return len(self._columns[0])

    def rows(self) -> Iterator[tuple]:
        """Iterate over the tuples, built from the columns as they go."""
        return zip(*self._columns)

    def column(self, attribute: str) -> list:
        """A copy of one column's values."""
        return list(self._columns[self._schema.position(attribute)])

    def column_pair(self, first: str, second: str) -> list[tuple]:
        """Extract two columns as value pairs (for 2-D frequency matrices)."""
        i = self._schema.position(first)
        j = self._schema.position(second)
        return list(zip(self._columns[i], self._columns[j]))

    def insert(self, row: tuple) -> None:
        """Append one tuple after validating it against the schema."""
        row = tuple(row)
        self._schema.validate_row(row)
        for column, value in zip(self._columns, row):
            column.append(value)

    def delete_where(self, predicate: Callable[[tuple], bool]) -> int:
        """Delete all tuples satisfying *predicate*; return how many."""
        kept = [row for row in self.rows() if not predicate(row)]
        removed = self.cardinality - len(kept)
        if removed:
            self._columns = _transpose(kept, len(self._schema))
        return removed

    def distinct_count(self, attribute: str) -> int:
        """Number of distinct values in *attribute*."""
        return len(set(self._columns[self._schema.position(attribute)]))

    def frequency_distribution(self, attribute: str) -> AttributeDistribution:
        """The attribute's value->frequency mapping (the ``Matrix`` step)."""
        if self.cardinality == 0:
            raise ValueError(f"relation {self.name!r} is empty")
        position = self._schema.position(attribute)
        # from_column only reads the list, so the stored one goes uncopied.
        return AttributeDistribution.from_column(self._columns[position])

    def __len__(self) -> int:
        return self.cardinality

    def __repr__(self) -> str:
        return (
            f"Relation({self.name!r}, attributes={list(self._schema.names)}, "
            f"cardinality={self.cardinality})"
        )
