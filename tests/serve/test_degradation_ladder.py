"""The degradation ladder, pinned cell by cell.

Every probe kind walks the same rungs when it cannot be answered
first-class: admission, quarantine (refined to rebuild-in-progress),
unhashable values (equality and membership), compile failure, unknown
relation versus no statistics, then the kind's own rungs (no histogram,
unorderable domain, incomparable bound for ranges).  Each cell below is
one (kind, rung) pair.  It is run under every ``on_error`` policy and
through every entry point of its kind — the scalar method, a list batch
and a ``ProbeFrame`` batch — and checks the answer, the raised type
under ``"raise"``, the ``ProbeTrace`` and the counter deltas.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Callable, Optional

import pytest

from repro.core.biased import v_opt_bias_hist
from repro.engine.analyze import analyze_relation
from repro.engine.catalog import CatalogEntry, StatsCatalog
from repro.engine.relation import Relation
from repro.serve import (
    DEFAULT_EQ_SELECTIVITY,
    DEFAULT_RANGE_SELECTIVITY,
    ON_ERROR_POLICIES,
    REASON_BACKPRESSURE,
    REASON_COMPILE_FAILED,
    REASON_QUARANTINED,
    REASON_QUOTA_EXCEEDED,
    REASON_REBUILD_IN_PROGRESS,
    EqualityProbe,
    EstimationService,
    JoinProbe,
    ProbeFrame,
    RangeProbe,
    TableCompileError,
)
from repro.serve.service import (
    REASON_INCOMPARABLE_BOUND,
    REASON_NO_HISTOGRAM,
    REASON_NO_STATISTICS,
    REASON_UNHASHABLE_VALUE,
    REASON_UNKNOWN_RELATION,
    REASON_UNORDERABLE_DOMAIN,
)
from repro.testing.faults import FaultInjector, InjectedFault

R_ROWS = 100.0
S_ROWS = 30.0
M_ROWS = 10.0
T_ROWS = 10.0

EQ_R = R_ROWS * DEFAULT_EQ_SELECTIVITY
NE_R = R_ROWS * (1.0 - DEFAULT_EQ_SELECTIVITY)
RANGE_R = R_ROWS * DEFAULT_RANGE_SELECTIVITY
JOIN_RS = R_ROWS * S_ROWS * DEFAULT_EQ_SELECTIVITY
JOIN_SR = S_ROWS * R_ROWS * DEFAULT_EQ_SELECTIVITY

UNHASHABLE = [1]


@pytest.fixture(scope="module")
def catalog():
    """R (100 rows): ``a`` serial, ``q`` serial (quarantined by cells),
    ``b`` sampled (no value-aware histogram).  S (30 rows): ``a``
    end-biased.  M (10 rows): ``a`` over an unorderable domain.  T (10
    rows): ``s`` over strings."""
    catalog = StatsCatalog()
    column = [1] * 40 + [2] * 25 + [3] * 20 + [4] * 10 + [5] * 5
    r = Relation.from_columns("R", {"a": column, "q": column, "b": column})
    analyze_relation(r, "a", catalog, kind="serial", buckets=3)
    analyze_relation(r, "q", catalog, kind="serial", buckets=3)
    analyze_relation(r, "b", catalog, kind="sampled", buckets=3)
    s = Relation.from_columns("S", {"a": [1] * 10 + [2] * 10 + [3] * 10})
    analyze_relation(s, "a", catalog, kind="end-biased", buckets=2)
    mixed = v_opt_bias_hist([5.0, 3.0, 2.0], 2, values=[1, "x", 2.5])
    catalog.put(CatalogEntry("M", "a", "biased", mixed, None, 3, M_ROWS))
    strings = v_opt_bias_hist([6.0, 3.0, 1.0], 2, values=["a", "b", "c"])
    catalog.put(CatalogEntry("T", "s", "biased", strings, None, 3, T_ROWS))
    return catalog


def _quarantine(service: EstimationService) -> None:
    service.quarantine("R", "q")


def _rebuilding(service: EstimationService) -> None:
    service.quarantine("R", "q")
    service.mark_rebuilding("R", "q")


def _healthy(service: EstimationService) -> None:
    pass


@dataclass(frozen=True)
class Cell:
    """One (kind, rung) pair and what every policy must make of it."""

    kind: str
    rung: str
    args: tuple
    reason: str
    #: The (relation, attribute) the trace names.
    where: tuple
    #: The answer under ``"fallback"``.
    value: float
    #: The type raised under ``"raise"``; ``None`` for a no-statistics
    #: fallback, which every policy answers.
    error: Optional[type]
    setup: Callable[[EstimationService], None] = _healthy
    #: Arm ``serve.compile`` to fail on this call.
    compile_fault: Optional[int] = None
    #: The admission verdict for a batch run.
    admission: Optional[str] = None
    #: The traced value when it differs from the answer (``not_equal``
    #: traces the equality part it complements).
    traced: Optional[float] = None
    compile_failures: int = 0

    @property
    def degraded(self) -> bool:
        return self.error is not None

    @property
    def id(self) -> str:
        return f"{self.kind}-{self.rung}"


def _selection_cells(kind: str, fallback: float) -> list[Cell]:
    """The rungs equality, membership and not_equal share."""
    return [
        Cell(kind, "quarantined", ("R", "q", 1), REASON_QUARANTINED, ("R", "q"),
             fallback, RuntimeError, _quarantine),
        Cell(kind, "rebuilding", ("R", "q", 1), REASON_REBUILD_IN_PROGRESS,
             ("R", "q"), fallback, RuntimeError, _rebuilding),
        Cell(kind, "compile-failed", ("R", "a", 1), REASON_COMPILE_FAILED,
             ("R", "a"), fallback, TableCompileError, compile_fault=1,
             compile_failures=1),
        Cell(kind, "unknown-relation", ("NOPE", "a", 1), REASON_UNKNOWN_RELATION,
             ("NOPE", "a"), 0.0, KeyError),
        Cell(kind, "no-statistics", ("R", "zz", 1), REASON_NO_STATISTICS,
             ("R", "zz"), fallback, None),
        Cell(kind, "unhashable-on-quarantined", ("R", "q", UNHASHABLE),
             REASON_QUARANTINED, ("R", "q"), fallback, RuntimeError, _quarantine),
    ]


EQUALITY_LIKE = [
    cell
    for kind in ("equality", "membership")
    for cell in _selection_cells(kind, EQ_R)
    + [
        Cell(kind, "unhashable", ("R", "a", UNHASHABLE), REASON_UNHASHABLE_VALUE,
             ("R", "a"), 0.0, TypeError),
        # The value rung sits above the lookup rungs: no table is looked
        # up (so none fails to compile) and no relation is resolved.
        Cell(kind, "unhashable-on-unknown", ("NOPE", "a", UNHASHABLE),
             REASON_UNHASHABLE_VALUE, ("NOPE", "a"), 0.0, TypeError),
        Cell(kind, "unhashable-on-compile-fault", ("R", "a", UNHASHABLE),
             REASON_UNHASHABLE_VALUE, ("R", "a"), 0.0, TypeError,
             compile_fault=1),
    ]
]

NOT_EQUAL = _selection_cells("not_equal", NE_R) + [
    # not_equal resolves its slot first and checks the value after: the
    # equality part degrades to 0.0 and the complement is the whole table.
    Cell("not_equal", "unhashable", ("R", "a", UNHASHABLE), REASON_UNHASHABLE_VALUE,
         ("R", "a"), R_ROWS, TypeError, traced=0.0),
    Cell("not_equal", "unhashable-on-unknown", ("NOPE", "a", UNHASHABLE),
         REASON_UNKNOWN_RELATION, ("NOPE", "a"), 0.0, KeyError),
    Cell("not_equal", "unhashable-on-compile-fault", ("R", "a", UNHASHABLE),
         REASON_COMPILE_FAILED, ("R", "a"), NE_R, TableCompileError,
         compile_fault=1, compile_failures=1),
]

RANGE = [
    Cell("range", "quarantined", ("R", "q", 1, 2), REASON_QUARANTINED, ("R", "q"),
         RANGE_R, RuntimeError, _quarantine),
    Cell("range", "rebuilding", ("R", "q", 1, 2), REASON_REBUILD_IN_PROGRESS,
         ("R", "q"), RANGE_R, RuntimeError, _rebuilding),
    Cell("range", "compile-failed", ("R", "a", 1, 2), REASON_COMPILE_FAILED,
         ("R", "a"), RANGE_R, TableCompileError, compile_fault=1,
         compile_failures=1),
    Cell("range", "unknown-relation", ("NOPE", "a", 1, 2), REASON_UNKNOWN_RELATION,
         ("NOPE", "a"), 0.0, KeyError),
    Cell("range", "no-statistics", ("R", "zz", 1, 2), REASON_NO_STATISTICS,
         ("R", "zz"), RANGE_R, None),
    Cell("range", "no-histogram", ("R", "b", 1, 2), REASON_NO_HISTOGRAM,
         ("R", "b"), RANGE_R, None),
    Cell("range", "unorderable-domain", ("M", "a", 0, 9), REASON_UNORDERABLE_DOMAIN,
         ("M", "a"), M_ROWS * DEFAULT_RANGE_SELECTIVITY, ValueError),
    Cell("range", "incomparable-bound", ("T", "s", 1, None),
         REASON_INCOMPARABLE_BOUND, ("T", "s"), T_ROWS * DEFAULT_RANGE_SELECTIVITY,
         TypeError),
    # Text bounds over a numeric domain, which NumPy would compare (or,
    # for "2.5", parse) as text, are incomparable too.
    Cell("range", "text-low-bound", ("R", "a", "x", None),
         REASON_INCOMPARABLE_BOUND, ("R", "a"), RANGE_R, TypeError),
    Cell("range", "text-high-bound", ("R", "a", 1, "x"),
         REASON_INCOMPARABLE_BOUND, ("R", "a"), RANGE_R, TypeError),
    Cell("range", "numeric-text-bound", ("R", "a", 1, "2.5"),
         REASON_INCOMPARABLE_BOUND, ("R", "a"), RANGE_R, TypeError),
    Cell("range", "bytes-bound", ("R", "a", b"1", None),
         REASON_INCOMPARABLE_BOUND, ("R", "a"), RANGE_R, TypeError),
]

JOIN = [
    Cell("join", "left-quarantined", ("R", "q", "S", "a"), REASON_QUARANTINED,
         ("R", "q"), JOIN_RS, RuntimeError, _quarantine),
    Cell("join", "right-quarantined", ("S", "a", "R", "q"), REASON_QUARANTINED,
         ("R", "q"), JOIN_SR, RuntimeError, _quarantine),
    # Both quarantine checks come before any relation is resolved.
    Cell("join", "unknown-left-quarantined-right", ("NOPE", "a", "R", "q"),
         REASON_QUARANTINED, ("R", "q"), 0.0, RuntimeError, _quarantine),
    Cell("join", "rebuilding", ("R", "q", "S", "a"), REASON_REBUILD_IN_PROGRESS,
         ("R", "q"), JOIN_RS, RuntimeError, _rebuilding),
    Cell("join", "compile-failed-left", ("R", "a", "S", "a"), REASON_COMPILE_FAILED,
         ("R", "a"), JOIN_RS, TableCompileError, compile_fault=1,
         compile_failures=1),
    # A failure on either side is reported against the left pair.
    Cell("join", "compile-failed-right", ("R", "a", "S", "a"), REASON_COMPILE_FAILED,
         ("R", "a"), JOIN_RS, TableCompileError, compile_fault=2,
         compile_failures=1),
    # A compile runs only when both catalog entries exist.
    Cell("join", "no-statistics-left-failing-right", ("R", "zz", "S", "a"),
         REASON_NO_STATISTICS, ("R", "zz"), JOIN_RS, None, compile_fault=1),
    Cell("join", "no-statistics-right", ("R", "a", "S", "zz"), REASON_NO_STATISTICS,
         ("R", "a"), JOIN_RS, None),
    Cell("join", "unknown-left", ("NOPE", "a", "R", "a"), REASON_UNKNOWN_RELATION,
         ("NOPE", None), 0.0, KeyError),
    Cell("join", "unknown-right", ("R", "a", "NOPE", "a"), REASON_UNKNOWN_RELATION,
         ("NOPE", None), 0.0, KeyError),
]

ADMISSION = [
    cell
    for reason in (REASON_QUOTA_EXCEEDED, REASON_BACKPRESSURE)
    for cell in (
        Cell("equality", reason, ("R", "a", 1), reason, ("R", "a"), EQ_R,
             PermissionError, admission=reason),
        Cell("range", reason, ("R", "a", 1, 2), reason, ("R", "a"), RANGE_R,
             PermissionError, admission=reason),
        Cell("join", reason, ("R", "a", "S", "a"), reason, ("R", "a"), JOIN_RS,
             PermissionError, admission=reason),
    )
] + [
    # Admission is the first rung: it wins over quarantine and needs no
    # statistics (unknown row counts fall back to 0.0).
    Cell("equality", "quota-on-quarantined", ("R", "q", 1), REASON_QUOTA_EXCEEDED,
         ("R", "q"), EQ_R, PermissionError, _quarantine,
         admission=REASON_QUOTA_EXCEEDED),
    Cell("range", "quota-on-unknown", ("NOPE", "a", 1, 2), REASON_QUOTA_EXCEEDED,
         ("NOPE", "a"), 0.0, PermissionError, admission=REASON_QUOTA_EXCEEDED),
    Cell("join", "quota-on-unknown", ("NOPE", "a", "R", "a"), REASON_QUOTA_EXCEEDED,
         ("NOPE", "a"), 0.0, PermissionError, admission=REASON_QUOTA_EXCEEDED),
]

PROBE_TYPES = {"equality": EqualityProbe, "range": RangeProbe, "join": JoinProbe}


def _scalar(service, cell, **kwargs):
    args = cell.args
    if cell.kind == "equality":
        return service.estimate_equality(*args, **kwargs)
    if cell.kind == "membership":
        return service.estimate_membership(args[0], args[1], [args[2]], **kwargs)
    if cell.kind == "not_equal":
        return service.estimate_not_equal(*args, **kwargs)
    if cell.kind == "range":
        return service.estimate_range(*args, **kwargs)
    return service.estimate_join(*args, **kwargs)


def _batch(framed: bool):
    def run(service, cell, **kwargs):
        probes = [PROBE_TYPES[cell.kind](*cell.args)]
        batch = ProbeFrame.from_probes(probes) if framed else probes
        if cell.admission is not None:
            kwargs["admission"] = [cell.admission]
        return float(service.estimate_batch(batch, **kwargs)[0])

    return run


PATHS = {"scalar": _scalar, "list": _batch(False), "frame": _batch(True)}


def _paths(cell: Cell) -> list[str]:
    if cell.admission is not None:
        return ["list", "frame"]
    if cell.kind in PROBE_TYPES:
        return ["scalar", "list", "frame"]
    return ["scalar"]


CASES = [
    pytest.param(cell, path, policy, id=f"{cell.id}-{path}-{policy}")
    for cell in EQUALITY_LIKE + NOT_EQUAL + RANGE + JOIN + ADMISSION
    for path in _paths(cell)
    for policy in ON_ERROR_POLICIES
]

COUNTERS = (
    "degraded_probes",
    "fallback_probes",
    "quarantined_probes",
    "rejected_probes",
    "compile_failures",
)


def _same(got: float, want: float) -> bool:
    return math.isnan(got) if math.isnan(want) else got == want


@pytest.mark.parametrize("cell, path, policy", CASES)
def test_ladder_cell(catalog, cell, path, policy):
    service = EstimationService(catalog)
    cell.setup(service)
    traces = []
    fault = (
        FaultInjector().fail_at(
            "serve.compile",
            on_call=cell.compile_fault,
            error=InjectedFault("compile fault"),
        )
        if cell.compile_fault is not None
        else contextlib.nullcontext()
    )
    raises = policy == "raise" and cell.degraded
    with fault:
        if raises:
            with pytest.raises(cell.error) as caught:
                PATHS[path](service, cell, on_error=policy, trace=traces.append)
            assert type(caught.value) is cell.error
        else:
            answer = PATHS[path](service, cell, on_error=policy, trace=traces.append)
    nan = policy == "nan" and cell.degraded
    if not raises:
        assert _same(answer, math.nan if nan else cell.value)
    stats = service.stats()
    resolved = 0 if raises else 1
    quarantine = cell.reason in (REASON_QUARANTINED, REASON_REBUILD_IN_PROGRESS)
    assert {name: getattr(stats, name) for name in COUNTERS} == {
        "degraded_probes": resolved if cell.degraded else 0,
        "fallback_probes": 0 if cell.degraded else 1,
        "quarantined_probes": resolved if quarantine else 0,
        "rejected_probes": 1 if cell.admission is not None else 0,
        "compile_failures": cell.compile_failures,
    }
    if raises:
        assert traces == []
        return
    assert len(traces) == 1
    (trace,) = traces
    assert (trace.kind, trace.relation, trace.attribute) == (cell.kind, *cell.where)
    assert trace.reason == cell.reason
    assert trace.degraded is cell.degraded
    assert trace.position == (None if path == "scalar" else 0)
    traced = cell.value if cell.traced is None else cell.traced
    assert _same(trace.value, math.nan if nan else traced)


@pytest.mark.parametrize("path", ["scalar", "list", "frame"])
def test_all_unhashable_group_looks_no_table_up(catalog, path):
    service = EstimationService(catalog)
    cell = Cell(
        "equality", "unhashable", ("R", "a", UNHASHABLE), REASON_UNHASHABLE_VALUE,
        ("R", "a"), 0.0, TypeError,
    )
    assert PATHS[path](service, cell) == 0.0
    stats = service.stats()
    assert (stats.table_hits, stats.table_misses) == (0, 0)


def test_mixed_group_splits_unhashable_members(catalog):
    service = EstimationService(catalog)
    traces = []
    probes = [
        EqualityProbe("R", "a", 1),
        EqualityProbe("R", "a", UNHASHABLE),
        EqualityProbe("R", "a", 2),
    ]
    out = service.estimate_batch(probes, trace=traces.append)
    assert out[0] == service.estimate_equality("R", "a", 1)
    assert out[1] == 0.0
    assert out[2] == service.estimate_equality("R", "a", 2)
    assert [(t.reason, t.position) for t in traces] == [(REASON_UNHASHABLE_VALUE, 1)]


@pytest.mark.parametrize("framed", [False, True])
def test_text_bounds_over_a_numeric_domain_degrade_alone(catalog, framed):
    service = EstimationService(catalog)
    traces = []
    probes = [
        RangeProbe("R", "a", 1, 3),
        RangeProbe("R", "a", 1, "x"),
        RangeProbe("R", "a", "2", None),
        RangeProbe("R", "a", 2, None),
    ]
    batch = ProbeFrame.from_probes(probes) if framed else probes
    out = service.estimate_batch(batch, trace=traces.append)
    assert out[0] == service.estimate_range("R", "a", 1, 3)
    assert out[1] == out[2] == RANGE_R
    assert out[3] == service.estimate_range("R", "a", 2, None)
    assert sorted((t.position, t.reason) for t in traces) == [
        (1, REASON_INCOMPARABLE_BOUND),
        (2, REASON_INCOMPARABLE_BOUND),
    ]
