"""Property suite: estimates against counts taken from the rows themselves.

With β at least the number of distinct values, every bucket of a serial
or end-biased histogram holds one value, so Theorem 2.1 makes the
estimates exact.  Each single-attribute equality, BETWEEN and one-sided
range estimate, and each two-relation equi-join estimate (self-joins
included), must equal the count from the generated rows, through
``estimate_batch`` on a probe list and on a ``ProbeFrame``; a serial
entry also answers 0 for values outside its domain.  The same statements
in SQL (``=``, ``>=``, ``BETWEEN`` and equi-joins) go through
``Database.estimate`` and must equal ``Database.execute``'s ``COUNT(*)``
to within rounding.  Relations hold ints or strs, so both Matrix paths
run (the int64 array path and the per-value dict path).  At any β,
Proposition 3.1 holds end to end: a serial entry's
``theoretical_self_join_error`` equals the measured ``S − S′``.

Conjunctions are left out.  Several predicates on one attribute are
multiplied as if independent, a known planner miss; predicates on
different attributes are independent only by assumption.
"""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.analyze import analyze_relation
from repro.engine.catalog import StatsCatalog
from repro.engine.relation import Relation
from repro.obs.accuracy import theoretical_self_join_error
from repro.serve import EqualityProbe, EstimationService, JoinProbe, ProbeFrame, RangeProbe
from repro.sql import Database

int_columns = st.lists(st.integers(min_value=-6, max_value=12), min_size=1, max_size=40)
str_columns = st.lists(st.text(alphabet="abcd", min_size=1, max_size=2), min_size=1, max_size=40)
#: Two or three single-attribute relations, each all-int or all-str.
databases = st.lists(st.one_of(int_columns, str_columns), min_size=2, max_size=3)


def analyzed(database, kind, buckets):
    """One service over the database, column ``i`` as *kind* with ``buckets[i]``."""
    catalog = StatsCatalog()
    for index, (column, count) in enumerate(zip(database, buckets)):
        relation = Relation.from_columns(f"R{index}", {"a": column})
        analyze_relation(relation, "a", catalog, kind=kind, buckets=count)
    return EstimationService(catalog), catalog


def outside_of(column):
    """One value below and one above every value of the column."""
    domain = sorted(set(column))
    if isinstance(domain[0], int):
        return [domain[0] - 1, domain[-1] + 1]
    return ["A", "zz"]


def bounds_of(column):
    """The column's values plus one bound below and one above them all."""
    below, above = outside_of(column)
    return [below, *sorted(set(column)), above]


def selection_probes(name, column, kind):
    """(probe, true count) pairs for one relation's selections.

    A serial entry answers a value outside its domain with 0.  An
    end-biased entry answers it from the remainder bucket (the catalog's
    missing-bucket rule), so its equality probes take domain values only.
    """
    counts = Counter(column)
    pairs = [(EqualityProbe(name, "a", v), n) for v, n in counts.items()]
    if kind == "serial":
        pairs.extend((EqualityProbe(name, "a", v), 0) for v in outside_of(column))
    bounds = bounds_of(column)
    for i, low in enumerate(bounds):
        for high in bounds[i:]:
            truth = sum(n for v, n in counts.items() if low <= v <= high)
            pairs.append((RangeProbe(name, "a", low, high), truth))
        pairs.append((RangeProbe(name, "a", low, None), sum(n for v, n in counts.items() if v >= low)))
        pairs.append((RangeProbe(name, "a", None, low), sum(n for v, n in counts.items() if v <= low)))
    return pairs


def join_probes(database):
    """(probe, true count) pairs for every ordered pair of relations."""
    counts = [Counter(column) for column in database]
    pairs = []
    for i, left in enumerate(counts):
        for j, right in enumerate(counts):
            truth = sum(n * right.get(v, 0) for v, n in left.items())
            pairs.append((JoinProbe(f"R{i}", "a", f"R{j}", "a"), truth))
    return pairs


def answered(service, probes):
    """The list answers, after checking the frame answers equal them."""
    listed = service.estimate_batch(probes)
    framed = service.estimate_batch(ProbeFrame.from_probes(probes))
    assert listed.tobytes() == framed.tobytes()
    return listed.tolist()


class TestOneValuePerBucketIsExact:
    @settings(max_examples=60, deadline=None)
    @given(
        database=databases,
        kind=st.sampled_from(["serial", "end-biased"]),
        extra=st.integers(0, 3),
    )
    def test_selections_and_joins_equal_the_row_counts(self, database, kind, extra):
        service, _ = analyzed(database, kind, [len(set(c)) + extra for c in database])
        pairs = join_probes(database)
        for index, column in enumerate(database):
            pairs.extend(selection_probes(f"R{index}", column, kind))
        probes = [probe for probe, _ in pairs]
        truths = [float(truth) for _, truth in pairs]
        estimates = answered(service, probes)
        misses = [
            (probe, estimate, truth)
            for probe, estimate, truth in zip(probes, estimates, truths)
            if estimate != truth
        ]
        assert not misses


def literal(value):
    """*value* as a SQL literal (the generated strs need no escaping)."""
    return f"'{value}'" if isinstance(value, str) else str(value)


def sql_statements(database, kind):
    """(statement, true count) pairs: one predicate each, or one join."""
    pairs = []
    for index, column in enumerate(database):
        counts = Counter(column)
        table = f"R{index}"
        equal = list(counts) + (outside_of(column) if kind == "serial" else [])
        for v in equal:
            pairs.append((f"SELECT COUNT(*) FROM {table} WHERE a = {literal(v)}", counts.get(v, 0)))
        bounds = bounds_of(column)
        for i, low in enumerate(bounds):
            truth = sum(n for v, n in counts.items() if v >= low)
            pairs.append((f"SELECT COUNT(*) FROM {table} WHERE a >= {literal(low)}", truth))
            for high in sorted({bounds[i], bounds[min(i + 2, len(bounds) - 1)], bounds[-1]}):
                truth = sum(n for v, n in counts.items() if low <= v <= high)
                sql = f"SELECT COUNT(*) FROM {table} WHERE a BETWEEN {literal(low)} AND {literal(high)}"
                pairs.append((sql, truth))
    for probe, truth in join_probes(database):
        sql = f"SELECT COUNT(*) FROM {probe.left_relation} x, {probe.right_relation} y WHERE x.a = y.a"
        pairs.append((sql, truth))
    return pairs


class TestSqlAgainstExecution:
    @settings(max_examples=30, deadline=None)
    @given(
        database=databases,
        kind=st.sampled_from(["serial", "end-biased"]),
        extra=st.integers(0, 3),
    )
    def test_estimates_equal_executed_counts(self, database, kind, extra):
        db = Database()
        for index, column in enumerate(database):
            db.create(f"R{index}", {"a": column})
        db.analyze(kind=kind, buckets=max(len(set(c)) for c in database) + extra)
        misses = []
        for sql, truth in sql_statements(database, kind):
            ((executed,),) = list(db.execute(sql).rows())
            assert executed == truth, sql
            estimate = db.estimate(sql)
            if not math.isclose(estimate, truth, rel_tol=1e-9):
                misses.append((sql, estimate, truth))
        assert not misses


class TestProposition31EndToEnd:
    @settings(max_examples=60, deadline=None)
    @given(database=databases, data=st.data())
    def test_serial_error_equals_measured_self_join_gap(self, database, data):
        buckets = [data.draw(st.integers(1, len(set(column)))) for column in database]
        service, catalog = analyzed(database, "serial", buckets)
        names = [f"R{index}" for index in range(len(database))]
        estimates = answered(service, [JoinProbe(n, "a", n, "a") for n in names])
        for name, column, estimate in zip(names, database, estimates):
            exact = float(sum(n * n for n in Counter(column).values()))
            predicted = theoretical_self_join_error(catalog.get(name, "a").histogram)
            assert exact - estimate == pytest.approx(predicted, rel=1e-9, abs=1e-9)
