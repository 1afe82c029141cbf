"""In-memory relations: named bags of tuples over a schema."""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Iterator, Optional, Sequence

from repro.core.frequency import AttributeDistribution
from repro.engine.schema import Attribute, Schema
from repro.util.rng import RandomSource, derive_rng


class Relation:
    """A named bag (multiset) of tuples.

    Rows are plain tuples aligned with the schema.  The class supports the
    handful of operations the reproduction needs: column extraction,
    insertion/deletion (for histogram-maintenance experiments), and
    generation from frequency distributions (the inverse of the ``Matrix``
    statistics step, used to materialise synthetic relations whose frequency
    sets are known exactly).
    """

    __slots__ = ("name", "_schema", "_rows")

    def __init__(self, name: str, schema: Schema, rows: Optional[Iterable[tuple]] = None):
        if not name or not isinstance(name, str):
            raise ValueError(f"relation name must be a non-empty string, got {name!r}")
        if not isinstance(schema, Schema):
            raise TypeError(f"schema must be a Schema, got {type(schema).__name__}")
        self.name = name
        self._schema = schema
        self._rows: list[tuple] = []
        for row in rows or ():
            self.insert(tuple(row))

    @classmethod
    def from_columns(
        cls, name: str, columns: dict[str, Sequence]
    ) -> "Relation":
        """Build a relation from parallel column sequences.

        The rows are built in one pass without :meth:`insert`'s per-row
        check, which cannot fail here: the schema has no types, and the
        equal-length check already fixes every row's arity.
        """
        if not columns:
            raise ValueError("at least one column is required")
        lengths = {len(values) for values in columns.values()}
        if len(lengths) != 1:
            raise ValueError(f"columns must have equal lengths, got {lengths}")
        relation = cls(name, Schema([Attribute(column_name) for column_name in columns]))
        relation._rows = list(zip(*columns.values()))
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
        rows = []
        for value, freq in zip(distribution.values, distribution.frequencies):
            count = int(round(float(freq)))
            rows.extend([(value,)] * count)
        if shuffle is not None:
            gen = derive_rng(shuffle)
            order = gen.permutation(len(rows))
            rows = [rows[i] for i in order]
        return cls(name, Schema([Attribute(attribute)]), rows)

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def cardinality(self) -> int:
        """Number of tuples (``T`` in the paper's notation)."""
        return len(self._rows)

    def rows(self) -> Iterator[tuple]:
        """Iterate over the tuples."""
        return iter(self._rows)

    def column(self, attribute: str) -> list:
        """Extract one column as a list of values."""
        position = self._schema.position(attribute)
        return [row[position] for row in self._rows]

    def column_pair(self, first: str, second: str) -> list[tuple]:
        """Extract two columns as value pairs (for 2-D frequency matrices)."""
        i = self._schema.position(first)
        j = self._schema.position(second)
        return [(row[i], row[j]) for row in self._rows]

    def insert(self, row: tuple) -> None:
        """Append one tuple after validating it against the schema."""
        row = tuple(row)
        self._schema.validate_row(row)
        self._rows.append(row)

    def delete_where(self, predicate: Callable[[tuple], bool]) -> int:
        """Delete all tuples satisfying *predicate*; return how many."""
        kept = [row for row in self._rows if not predicate(row)]
        removed = len(self._rows) - len(kept)
        self._rows = kept
        return removed

    def distinct_count(self, attribute: str) -> int:
        """Number of distinct values in *attribute*."""
        position = self._schema.position(attribute)
        return len({row[position] for row in self._rows})

    def frequency_distribution(self, attribute: str) -> AttributeDistribution:
        """The attribute's value->frequency mapping (the ``Matrix`` step)."""
        if self.cardinality == 0:
            raise ValueError(f"relation {self.name!r} is empty")
        return AttributeDistribution.from_column(self.column(attribute))

    def __len__(self) -> int:
        return self.cardinality

    def __repr__(self) -> str:
        return (
            f"Relation({self.name!r}, attributes={list(self._schema.names)}, "
            f"cardinality={self.cardinality})"
        )
