"""``explain``: the SQL front end, a few probes per statement.

``Database.estimate`` runs over a fixed list of 720 templated statements
on a wide schema: 40 relations x 8 attributes, 320 analyzed columns,
more than the 256 compiled tables the service's LRU holds.  About 70%
are single-table statements and the rest 2-3-way equi-joins, with and
without aliases, so the p50 falls in the first class and the p99 in the
second.  Aliased statements copy their rows and cost about twice as
much, so only one single-table template in six is aliased: that keeps
the p50 inside the cheap class instead of on the edge between two.  The planner builds a fresh service per statement, so every
statement compiles the tables it touches.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import time
from typing import Iterator, Optional

import numpy as np

from data import rng, zipf_column
from harness import Recorder, qerror
from workload import Workload

from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.joinorder import JoinEdge, JoinGraph, optimal_join_order
from repro.serve import EstimationService
from repro.sql import Database, parse_select, plan_query

RELATIONS = 40
ATTRIBUTES = 8
ROWS = 300
BUCKETS = 10
#: Domain size per attribute position; joins use the three widest.
DOMAINS = (10, 20, 40, 80, 150, 250, 400, 600)
JOIN_ATTRIBUTES = (5, 6, 7)
STATEMENTS = 720


@contextlib.contextmanager
def capture_services() -> Iterator[list]:
    """Collect every EstimationService built inside the block.

    The planner creates its service internally; wrapping the constructor
    is the only way to read that service's counters from outside.  Used
    in untimed passes only.
    """
    created: list = []
    original = EstimationService.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        created.append(self)

    EstimationService.__init__ = init
    try:
        yield created
    finally:
        EstimationService.__init__ = original


class Statement:
    __slots__ = ("sql", "tables", "edges", "aliased")

    def __init__(self, sql: str, tables=(), edges=(), aliased=False) -> None:
        self.sql = sql
        self.tables = tuple(tables)
        self.edges = tuple(edges)
        self.aliased = aliased

    @property
    def is_join(self) -> bool:
        return len(self.tables) > 1


class Explain(Workload):
    name = "explain"

    def __init__(self, seed: int, tmpdir, acct) -> None:
        super().__init__(seed, tmpdir, acct)
        gen = rng(seed, "explain")
        self.columns: dict[str, dict[str, list]] = {}
        for r in range(RELATIONS):
            self.columns[f"t{r}"] = {
                f"c{a}": zipf_column(gen, ROWS, DOMAINS[a], 0.3 + 0.2 * ((r + 3 * a) % 6)).tolist()
                for a in range(ATTRIBUTES)
            }
        # The statement list is fixed; the seed only arranges the data.
        # Seven in ten are single-table, spread evenly through the list.
        self._ranked: dict[tuple[str, int], np.ndarray] = {}
        self.statements = [
            self._single(i) if i % 10 < 7 else self._join(i) for i in range(STATEMENTS)
        ]
        # Truth comes from executing every statement, before any clock runs.
        truth_db = self._database()
        self.truth = [
            float(next(iter(truth_db.execute(s.sql).rows()))[0]) for s in self.statements
        ]
        self._turn = itertools.count()
        self.db: Optional[Database] = None
        self.relations: dict = {}
        self.expected: list[float] = []
        self.probes: list[int] = []
        self.compiles: list[int] = []
        self.hits = 0
        self._first: Optional[float] = None

    # -- inputs -----------------------------------------------------------

    def _value(self, table: str, attribute: int, slot: int) -> int:
        """The value at row *slot* of the column sorted by falling frequency.

        Every seed has the same frequency multiset, so a slot names a value
        of the same frequency under every seed; the seed only decides
        which value that is.
        """
        key = (table, attribute)
        ranked = self._ranked.get(key)
        if ranked is None:
            values, counts = np.unique(self.columns[table][f"c{attribute}"], return_counts=True)
            order = np.lexsort((values, -counts))
            ranked = self._ranked[key] = np.repeat(values[order], counts[order])
        return int(ranked[(slot * 131) % ROWS])

    def _single(self, i: int) -> Statement:
        t = f"t{i % RELATIONS}"
        a = (i // RELATIONS) % ATTRIBUTES
        b = (a + 1 + i % (ATTRIBUTES - 1)) % ATTRIBUTES
        v = self._value(t, a, i)
        template = i % 6
        if template == 0:
            sql = f"SELECT COUNT(*) FROM {t} WHERE {t}.c{a} = {v}"
        elif template == 1:
            sql = f"SELECT COUNT(*) FROM {t} WHERE {t}.c{a} BETWEEN {v} AND {v + DOMAINS[a] // 4}"
        elif template == 2:
            w, x = self._value(t, a, i + 1), self._value(t, a, i + 2)
            sql = f"SELECT COUNT(*) FROM {t} WHERE {t}.c{a} IN ({v}, {w}, {x})"
        elif template == 3:
            w = self._value(t, b, i)
            sql = f"SELECT COUNT(*) FROM {t} WHERE {t}.c{a} = {v} AND {t}.c{b} < {w}"
        elif template == 4:
            sql = f"SELECT COUNT(*) FROM {t} WHERE {t}.c{a} <> {v}"
        else:
            return Statement(f"SELECT COUNT(*) FROM {t} AS x WHERE x.c{a} >= {v}", aliased=True)
        return Statement(sql)

    def _join(self, i: int) -> Statement:
        names = [f"t{(i + step) % RELATIONS}" for step in (0, 7, 19)]
        j = JOIN_ATTRIBUTES[i % 3]
        k = JOIN_ATTRIBUTES[(i + 1) % 3]
        a = i % 4
        t, s, u = names
        v = self._value(t, a, i)
        template = i % 4
        if template < 2:
            edges = [JoinEdge(t, f"c{j}", s, f"c{j}")]
            if template == 0:
                sql = f"SELECT COUNT(*) FROM {t}, {s} WHERE {t}.c{j} = {s}.c{j} AND {t}.c{a} = {v}"
                return Statement(sql, names[:2], edges)
            sql = f"SELECT COUNT(*) FROM {t} x, {s} y WHERE x.c{j} = y.c{j} AND x.c{a} = {v}"
            return Statement(sql, names[:2], edges, aliased=True)
        edges = [JoinEdge(t, f"c{j}", s, f"c{j}"), JoinEdge(s, f"c{k}", u, f"c{k}")]
        if template == 2:
            sql = (
                f"SELECT COUNT(*) FROM {t}, {s}, {u} WHERE {t}.c{j} = {s}.c{j} "
                f"AND {s}.c{k} = {u}.c{k} AND {t}.c{a} = {v}"
            )
            return Statement(sql, names, edges)
        sql = (
            f"SELECT COUNT(*) FROM {t} x, {s} y, {u} z WHERE x.c{j} = y.c{j} "
            f"AND y.c{k} = z.c{k} AND x.c{a} = {v}"
        )
        return Statement(sql, names, edges, aliased=True)

    def _database(self) -> Database:
        db = Database()
        for name, columns in self.columns.items():
            db.create(name, columns)
        return db

    # -- system under test -------------------------------------------------

    def setup(self) -> None:
        db = self._database()
        db.analyze(kind="end-biased", buckets=BUCKETS)
        first = db.estimate(self.statements[0].sql)
        if self._first is not None:
            self.acct.record("setup", _same(first, self._first), "re-analyzed estimate differs")
        else:
            self.acct.record("setup", math.isfinite(first), f"estimate {first!r}")
            self._first = first
        self.db = db
        self.relations = {name: db.relation(name) for name in db.relation_names}

    def teardown(self) -> None:
        self.db = None
        self.relations = {}

    def check_before(self) -> None:
        """One counted pass fixes the answers; a second must repeat them."""
        for statement in self.statements:
            with capture_services() as created:
                estimate = self.db.estimate(statement.sql)
            stats = [service.stats() for service in created]
            self.expected.append(estimate)
            self.probes.append(sum(s.probes_served for s in stats))
            self.compiles.append(sum(s.table_misses for s in stats))
            self.hits += sum(s.table_hits for s in stats)
        for k, statement in enumerate(self.statements):
            again = self.db.estimate(statement.sql)
            self.acct.record("checks", _same(again, self.expected[k]), f"statement {k} changed")
        self.acct.record("checks", _same(self.expected[0], self._first), "setup estimate differs")

    def request(self, rec: Optional[Recorder]) -> tuple[float, int]:
        k = next(self._turn) % len(self.statements)
        statement = self.statements[k]
        started = time.perf_counter()
        if rec is None:
            estimate = self.db.estimate(statement.sql)
        else:
            plan_span = "sql.plan.join" if statement.is_join else "sql.plan.single"
            with rec.span("explain.request", rec.new_request()):
                with rec.span("sql.parse"):
                    parsed = parse_select(statement.sql)
                with rec.span(plan_span):
                    planned = plan_query(parsed, self.relations, self.db.catalog)
                estimate = planned.estimated_output_rows
        latency = time.perf_counter() - started
        self.acct.record("window", _same(estimate, self.expected[k]), f"statement {k} changed")
        return latency, self.probes[k]

    # -- results -----------------------------------------------------------

    def qerrors(self) -> list[float]:
        return [qerror(e, a) for e, a in zip(self.expected, self.truth)]

    def layers(self, rec: Recorder) -> dict[str, tuple[float, str]]:
        for statement in self.statements:
            if not statement.is_join or statement.aliased:
                continue
            graph = JoinGraph([self.db.relation(n) for n in statement.tables], statement.edges)
            estimator = CardinalityEstimator(self.db.catalog)
            for edge in statement.edges:
                estimator.join_selectivity(
                    edge.left_relation, edge.left_attribute,
                    edge.right_relation, edge.right_attribute,
                )
            with rec.span("optimizer.join_order"):
                optimal_join_order(graph, estimator)
        misses = sum(self.compiles)
        return {
            "sql.parse_us": (rec.median_self("sql.parse", 1e6), "us"),
            "sql.plan_single_us": (rec.median_self("sql.plan.single", 1e6), "us"),
            "sql.plan_join_us": (rec.median_self("sql.plan.join", 1e6), "us"),
            "sql.compiles_per_statement": (misses / len(self.statements), "count"),
            "sql.probes_per_statement": (sum(self.probes) / len(self.statements), "count"),
            "serve.table_hit_ratio": (self.hits / (self.hits + misses), "ratio"),
            "optimizer.join_order_us": (rec.median_self("optimizer.join_order", 1e6), "us"),
        }


def _same(left: float, right: float) -> bool:
    """Exact float equality, NaN equal to NaN."""
    return left == right or (left != left and right != right)
