"""Tests for repro.engine.relation."""

import numpy as np
import pytest

from repro.core.frequency import AttributeDistribution
from repro.engine.relation import Relation
from repro.engine.schema import Attribute, Schema


@pytest.fixture
def worksfor():
    """The paper's Example 2.3 WorksFor(ename, dname, year) relation (small)."""
    return Relation.from_columns(
        "WorksFor",
        {
            "ename": ["ann", "bob", "cat", "dan", "eve", "fay"],
            "dname": ["toy", "toy", "shoe", "candy", "toy", "shoe"],
            "year": [1990, 1990, 1992, 1993, 1991, 1992],
        },
    )


class TestConstruction:
    def test_from_columns(self, worksfor):
        assert worksfor.cardinality == 6
        assert worksfor.schema.names == ("ename", "dname", "year")

    @pytest.mark.parametrize("as_array", [False, True])
    def test_from_columns_equals_validated_construction(self, as_array):
        columns = {"a": [3, 1, 3, 2], "b": ["x", "y", "x", "z"]}
        if as_array:
            columns = {name: np.asarray(values) for name, values in columns.items()}
        built = Relation.from_columns("R", columns)
        reference = Relation("R", Schema(list(columns)), zip(*columns.values()))
        assert built.schema == reference.schema
        assert list(built.rows()) == list(reference.rows())
        assert [tuple(map(type, row)) for row in built.rows()] == [
            tuple(map(type, row)) for row in reference.rows()
        ]

    def test_column_length_mismatch(self):
        with pytest.raises(ValueError, match="equal lengths"):
            Relation.from_columns("R", {"a": [1, 2], "b": [1]})
        with pytest.raises(ValueError, match="equal lengths"):
            Relation.from_columns("R", {"a": np.arange(2), "b": np.arange(3)})

    def test_row_validation_on_insert(self):
        relation = Relation("R", Schema([Attribute("a", int)]))
        relation.insert((5,))
        with pytest.raises(TypeError):
            relation.insert(("five",))
        with pytest.raises(ValueError):
            relation.insert((1, 2))

    def test_from_distribution_materialises_counts(self):
        dist = AttributeDistribution(["x", "y"], [3.0, 2.0])
        relation = Relation.from_distribution("R", "a", dist)
        assert relation.cardinality == 5
        assert sorted(relation.column("a")) == ["x", "x", "x", "y", "y"]

    def test_from_distribution_roundtrip(self):
        """Matrix(from_distribution(d)) == d — generation inverts analysis."""
        dist = AttributeDistribution([1, 2, 3], [4.0, 1.0, 7.0])
        relation = Relation.from_distribution("R", "a", dist)
        assert relation.frequency_distribution("a") == dist

    def test_from_distribution_shuffle_deterministic(self):
        dist = AttributeDistribution(["x", "y"], [30.0, 20.0])
        a = Relation.from_distribution("R", "a", dist, shuffle=7)
        b = Relation.from_distribution("R", "a", dist, shuffle=7)
        assert list(a.rows()) == list(b.rows())

    def test_bad_name(self):
        with pytest.raises(ValueError, match="name"):
            Relation("", Schema(["a"]))


class TestAccess:
    def test_column(self, worksfor):
        assert worksfor.column("dname").count("toy") == 3

    def test_column_pair(self, worksfor):
        pairs = worksfor.column_pair("dname", "year")
        assert ("toy", 1990) in pairs
        assert len(pairs) == 6

    def test_unknown_column(self, worksfor):
        with pytest.raises(KeyError):
            worksfor.column("salary")

    def test_distinct_count(self, worksfor):
        assert worksfor.distinct_count("dname") == 3
        assert worksfor.distinct_count("ename") == 6

    def test_frequency_distribution(self, worksfor):
        dist = worksfor.frequency_distribution("dname")
        assert dist.frequency_of("toy") == 3.0
        assert dist.frequency_of("shoe") == 2.0
        assert dist.frequency_of("candy") == 1.0

    def test_frequency_distribution_empty_relation(self):
        relation = Relation("R", Schema(["a"]))
        with pytest.raises(ValueError, match="empty"):
            relation.frequency_distribution("a")


class TestUpdates:
    def test_insert(self, worksfor):
        worksfor.insert(("gil", "candy", 1994))
        assert worksfor.cardinality == 7

    def test_delete_where(self, worksfor):
        position = worksfor.schema.position("dname")
        removed = worksfor.delete_where(lambda row: row[position] == "toy")
        assert removed == 3
        assert worksfor.cardinality == 3

    def test_delete_none(self, worksfor):
        assert worksfor.delete_where(lambda row: False) == 0

    def test_len(self, worksfor):
        assert len(worksfor) == 6
