"""Relation schemas: named, optionally typed attributes."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import Optional, Sequence


@dataclass(frozen=True)
class Attribute:
    """A named attribute with an optional Python type constraint."""

    name: str
    dtype: Optional[type] = None

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise ValueError(f"attribute name must be a non-empty string, got {self.name!r}")

    def validate(self, value: object) -> None:
        """Raise ``TypeError`` when *value* violates the type constraint."""
        if self.dtype is not None and not isinstance(value, self.dtype):
            raise TypeError(
                f"attribute {self.name!r} expects {self.dtype.__name__}, "
                f"got {type(value).__name__} ({value!r})"
            )


class Schema:
    """An ordered collection of distinct attributes."""

    __slots__ = ("_attributes", "_index")

    def __init__(self, attributes: Sequence[Attribute]):
        attrs = tuple(
            a if isinstance(a, Attribute) else Attribute(str(a)) for a in attributes
        )
        if not attrs:
            raise ValueError("a schema needs at least one attribute")
        names = [a.name for a in attrs]
        if len(set(names)) != len(names):
            raise ValueError(f"attribute names must be distinct, got {names}")
        self._attributes = attrs
        self._index = {a.name: i for i, a in enumerate(attrs)}

    @property
    def attributes(self) -> tuple[Attribute, ...]:
        return self._attributes

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self._attributes)

    def position(self, name: str) -> int:
        """Column index of attribute *name* (raises ``KeyError`` if absent)."""
        if name not in self._index:
            raise KeyError(
                f"no attribute {name!r}; schema has {list(self._index)}"
            )
        return self._index[name]

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self._attributes)

    def __iter__(self):
        return iter(self._attributes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._attributes == other._attributes

    def __repr__(self) -> str:
        return f"Schema({', '.join(self.names)})"

    def validate_row(self, row: tuple) -> None:
        """Check arity and per-attribute types of one tuple."""
        if len(row) != len(self._attributes):
            raise ValueError(
                f"row has {len(row)} fields but schema has {len(self._attributes)}"
            )
        for attribute, value in zip(self._attributes, row):
            attribute.validate(value)

    def validate_rows(self, rows: list[tuple]) -> None:
        """Check every tuple of *rows* as :meth:`validate_row` does.

        The checks run one pass per column (arity, then each typed
        attribute), so an untyped schema checks only the arity; a batch
        that fails them is checked again row by row, which raises the
        error :meth:`validate_row` gives for the first bad tuple.
        """
        if set(map(len, rows)) <= {len(self._attributes)} and all(
            all(map(isinstance, map(itemgetter(position), rows), repeat(attribute.dtype)))
            for position, attribute in enumerate(self._attributes)
            if attribute.dtype is not None
        ):
            return
        for row in rows:
            self.validate_row(row)
