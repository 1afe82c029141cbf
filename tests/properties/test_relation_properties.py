"""Property suite: ``Relation`` behaves as a plain list of row tuples.

A relation stores one list per attribute.  Hypothesis drives sequences of
construction (``from_columns`` and ``Relation(name, schema, rows)``),
``insert`` and ``delete_where`` against a reference that keeps the rows as
a list of tuples, and after every step compares everything a caller can
read: the cardinality, the rows, each column, each column pair, the
distinct counts and the ``Matrix`` step's frequency distribution.  The
schemas are typed and untyped, and relations start empty as often as not.
Separate properties check that the relation shares no list with its
caller (neither the lists handed to ``from_columns`` nor those ``column``
returns), and that a construction from bad rows raises what the
row-by-row check raises for the first of them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.frequency import AttributeDistribution
from repro.engine.relation import Relation
from repro.engine.schema import Attribute, Schema

SCHEMAS = (
    Schema([Attribute("a")]),
    Schema([Attribute("a"), Attribute("b"), Attribute("c")]),
    Schema([Attribute("a", int), Attribute("b", str)]),
)

ints = st.integers(min_value=-2, max_value=3)
texts = st.text(alphabet="xy", max_size=2)
#: Values repeat, and numbers mix the types a dict key merges (True and 1,
#: 0 and -0.0) with ones it keeps apart.
numbers = st.one_of(ints, st.booleans(), st.sampled_from([0.0, -0.0, 2.5]))
#: An unorderable mix, which the Matrix step refuses with TypeError.
untyped_values = st.one_of(numbers, texts, st.none())
#: Untyped attributes draw by name: orderable domains, and one mix.
UNTYPED_VALUES = {"a": numbers, "b": texts, "c": untyped_values}


def attribute_values(attribute):
    if attribute.dtype is int:
        return ints
    if attribute.dtype is str:
        return texts
    return UNTYPED_VALUES[attribute.name]


def valid_rows(schema):
    return st.tuples(*(attribute_values(a) for a in schema))


def invalid_rows(schema):
    """Rows the schema refuses: one field too many or too few, or a wrong type."""
    wrong_arity = st.one_of(
        st.tuples(*(attribute_values(a) for a in schema), untyped_values),
        st.tuples(*(attribute_values(a) for a in schema.attributes[:-1])),
    )
    if schema.attributes[0].dtype is int:
        wrong_type = st.tuples(texts, st.just("x"))
        return st.one_of(wrong_arity, wrong_type)
    return wrong_arity


def _types(rows):
    return [tuple(map(type, row)) for row in rows]


class RelationMachine(RuleBasedStateMachine):
    """A relation and its list-of-tuples reference, step for step."""

    @initialize(data=st.data(), schema=st.sampled_from(SCHEMAS), by_columns=st.booleans())
    def build(self, data, schema, by_columns):
        rows = data.draw(st.lists(valid_rows(schema), max_size=12), label="rows")
        if by_columns and all(a.dtype is None for a in schema):
            columns = {
                name: [row[position] for row in rows]
                for position, name in enumerate(schema.names)
            }
            self.relation = Relation.from_columns("R", columns)
        else:
            # Lists as rows, through a one-shot iterator, as callers may pass them.
            self.relation = Relation("R", schema, iter([list(row) for row in rows]))
        self.reference = list(rows)

    @rule(data=st.data())
    def insert(self, data):
        row = data.draw(valid_rows(self.relation.schema), label="row")
        self.relation.insert(list(row))
        self.reference.append(row)

    @rule(data=st.data())
    def insert_invalid(self, data):
        row = data.draw(invalid_rows(self.relation.schema), label="bad row")
        with pytest.raises((TypeError, ValueError)):
            self.relation.insert(row)

    @rule(data=st.data())
    def delete_where(self, data):
        schema = self.relation.schema
        position = data.draw(st.integers(min_value=0, max_value=len(schema) - 1))
        value = data.draw(attribute_values(schema.attributes[position]), label="value")
        seen = []

        def predicate(row):
            seen.append(row)
            return row[position] == value

        kept = [row for row in self.reference if not row[position] == value]
        removed = self.relation.delete_where(predicate)
        assert seen == self.reference
        assert removed == len(self.reference) - len(kept)
        self.reference = kept

    @rule()
    def delete_nothing(self):
        assert self.relation.delete_where(lambda row: False) == 0

    @invariant()
    def reads_like_the_reference(self):
        relation, reference = self.relation, self.reference
        assert relation.cardinality == len(relation) == len(reference)
        rows = list(relation.rows())
        assert rows == reference
        assert _types(rows) == _types(reference)
        names = relation.schema.names
        columns = [[row[position] for row in reference] for position in range(len(names))]
        for name, expected in zip(names, columns):
            column = relation.column(name)
            assert column == expected and _types([column]) == _types([expected])
            assert relation.distinct_count(name) == len(set(expected))
            if not reference:
                with pytest.raises(ValueError, match="empty"):
                    relation.frequency_distribution(name)
                continue
            try:
                want = AttributeDistribution.from_column(expected)
            except TypeError:
                with pytest.raises(TypeError):
                    relation.frequency_distribution(name)
                continue
            got = relation.frequency_distribution(name)
            assert got.values == want.values
            assert [type(v) for v in got.values] == [type(v) for v in want.values]
            assert np.array_equal(got.frequencies, want.frequencies)
        for first, first_column in zip(names, columns):
            for second, second_column in zip(names, columns):
                assert relation.column_pair(first, second) == list(
                    zip(first_column, second_column)
                )


RelationMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=12, deadline=None
)
TestRelationModel = RelationMachine.TestCase


column_lists = st.lists(untyped_values, max_size=10)


@settings(max_examples=100, deadline=None)
@given(values=column_lists, extra=untyped_values)
def test_from_columns_copies_the_callers_lists(values, extra):
    """One list handed in for two attributes, as the bulk set-up does."""
    relation = Relation.from_columns("R", {"a": values, "b": values})
    before = list(values)
    values.append(extra)
    if before:
        values[0] = extra
    assert relation.column("a") == before and relation.column("b") == before
    relation.insert((extra, "new"))
    assert relation.column("a") == before + [extra]
    assert relation.column("b") == before + ["new"]


@settings(max_examples=100, deadline=None)
@given(values=column_lists, extra=untyped_values)
def test_column_returns_a_copy(values, extra):
    relation = Relation.from_columns("R", {"a": values})
    column = relation.column("a")
    column.append(extra)
    if values:
        column[0] = extra
        relation.column_pair("a", "a")[0] = (extra, extra)
    assert relation.column("a") == values
    assert list(relation.rows()) == [(value,) for value in values]
    assert relation.cardinality == len(values)


@settings(max_examples=100, deadline=None)
@given(values=st.one_of(st.lists(numbers, min_size=1, max_size=10), st.lists(texts, min_size=1, max_size=10)))
def test_the_matrix_step_leaves_the_column_as_it_was(values):
    relation = Relation.from_columns("R", {"a": values})
    relation.frequency_distribution("a")
    relation.distinct_count("a")
    assert relation.column("a") == values
    assert _types([relation.column("a")]) == _types([values])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), schema=st.sampled_from(SCHEMAS))
def test_construction_raises_the_first_bad_rows_error(data, schema):
    """Checked column by column, a batch still fails as the row-by-row check
    fails first: same exception type, same message."""
    rows = data.draw(
        st.lists(st.one_of(valid_rows(schema), invalid_rows(schema)), max_size=8), label="rows"
    )
    expected = None
    for row in rows:
        try:
            schema.validate_row(row)
        except (TypeError, ValueError) as exc:
            expected = exc
            break
    if expected is None:
        assert list(Relation("R", schema, rows).rows()) == rows
        return
    with pytest.raises(type(expected)) as raised:
        Relation("R", schema, rows)
    assert str(raised.value) == str(expected)
