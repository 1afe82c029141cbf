"""Columnar probe batches: the array-native front door of the service.

"Selectivity Estimation of Inequality Joins In Databases" (PAPERS.md)
works on per-relation histograms held as plain arrays, with every
operation a whole-column pass.  This module brings the same shape to the
serving hot path in two steps:

* a heterogeneous probe batch is held as :class:`ProbeColumns` — one
  kind code per probe, interned relation/attribute names as index
  columns, and per-kind value, bound and flag columns;
* :class:`ProbeFrame` groups those columns **once** by (relation,
  attribute, kind) through index arrays, with values/bounds
  pre-converted to numeric columns where possible, and
  :meth:`EstimationService.estimate_batch
  <repro.serve.service.EstimationService.estimate_batch>` then answers
  each group with one vectorized table call and scatters the results
  back by position.

Extracting the columns is the only part of a batch that walks Python
probe objects (one attribute extraction per probe); the wire schema v3
ships the columns themselves, so a server builds its frame with
:meth:`ProbeFrame.from_columns` without materializing a probe per
position.  Callers with a stable probe workload can build the frame once
with :meth:`ProbeFrame.from_probes` and pass it to ``estimate_batch``
repeatedly: every later call skips the grouping entirely and runs as a
handful of numpy array operations per group.

The probe dataclasses themselves live here (the service module re-exports
them, so ``from repro.serve.service import EqualityProbe`` keeps working).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Hashable, Iterable, Optional, Sequence, Union

import numpy as np

from repro.serve.tables import probe_code_array, range_bound_arrays


@dataclass(frozen=True)
class EqualityProbe:
    """One ``σ_{attribute = value}(relation)`` cardinality request."""

    relation: str
    attribute: str
    value: Hashable


@dataclass(frozen=True)
class RangeProbe:
    """One range-selection cardinality request (``None`` bounds are open)."""

    relation: str
    attribute: str
    low: Optional[Hashable] = None
    high: Optional[Hashable] = None
    include_low: bool = True
    include_high: bool = True


@dataclass(frozen=True)
class JoinProbe:
    """One two-way equality-join cardinality request."""

    left_relation: str
    left_attribute: str
    right_relation: str
    right_attribute: str


Probe = Union[EqualityProbe, RangeProbe, JoinProbe]

#: Kind codes of :attr:`ProbeColumns.kinds` (also the wire v3 kind column).
KIND_EQUALITY = 0
KIND_RANGE = 1
KIND_JOIN = 2
_KIND_COUNT = 3

#: Exact-type dispatch for the hot conversion loop; subclasses fall back
#: to the isinstance path below (and are memoized here afterwards).
_KIND_BY_TYPE: dict[type, int] = {
    EqualityProbe: KIND_EQUALITY,
    RangeProbe: KIND_RANGE,
    JoinProbe: KIND_JOIN,
}

#: One probe-value column: Python values, or a numeric array when every
#: entry is a plain number (how wire v3 ships all-int / all-float columns).
ValueColumn = Union[list, np.ndarray]


def _kind_code(probe: object) -> int:
    if isinstance(probe, EqualityProbe):
        code = KIND_EQUALITY
    elif isinstance(probe, RangeProbe):
        code = KIND_RANGE
    elif isinstance(probe, JoinProbe):
        code = KIND_JOIN
    else:
        raise TypeError(
            f"unsupported probe type {type(probe).__name__}; expected "
            "EqualityProbe, RangeProbe, or JoinProbe"
        )
    _KIND_BY_TYPE[type(probe)] = code
    return code


def _kinds_of(probes: list) -> np.ndarray:
    try:
        codes = bytes(map(_KIND_BY_TYPE.__getitem__, map(type, probes)))
    except KeyError:
        # Unknown or subclassed probe type: resolve per probe (and
        # memoize subclasses), raising the documented TypeError for
        # anything that is not a probe at all.
        codes = bytes(map(_kind_code, probes))
    return np.frombuffer(codes, dtype=np.uint8)


class _NameTable(dict):
    """Relation/attribute names interned in first-seen order (name -> id)."""

    def __missing__(self, name: Hashable) -> int:
        ident = self[name] = len(self)
        return ident

    def ids(self, names: list) -> np.ndarray:
        """The index column of *names*, interning each new one on first sight."""
        first = names[0]
        # A column holding one name object skips the lookups.  Identity
        # never calls a name's __eq__, so an unhashable name still fails
        # its lookup with TypeError, and a mixed column stops at once.
        if all(map(operator.is_, names, itertools.repeat(first))):
            return np.full(len(names), self[first], dtype=np.int32)
        return np.fromiter(
            map(self.__getitem__, names), dtype=np.int32, count=len(names)
        )


def value_column(values: list) -> ValueColumn:  # repolint: boundary-exempt — every list is a column; untyped ones pass through
    """The one typing rule of probe-value and range-bound columns.

    An int64 array when every entry is a plain ``int`` within int64 (so
    an empty column too), a float64 array when every entry is a plain
    ``float``, and the list as given otherwise (``None`` bounds, bools,
    strings, mixed numbers, ints beyond int64).
    :meth:`ProbeColumns.from_probes` and the wire v3 decoder both apply
    it, so the two paths yield equal columns.
    """
    present = set(map(type, values))
    if present <= {int}:
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            return values
    if present == {float}:
        return np.array(values, dtype=np.float64)
    return values


def _flag_column(flags: list) -> np.ndarray:
    """A boolean column (inclusivity flags are usually uniform)."""
    if all(flags):
        return np.ones(len(flags), dtype=bool)
    if not any(flags):
        return np.zeros(len(flags), dtype=bool)
    return np.fromiter(map(bool, flags), dtype=bool, count=len(flags))


@dataclass(frozen=True, eq=False)
class ProbeColumns:
    """A probe batch as typed columns, in batch order.

    The one shape both wire schema v3 and :class:`ProbeFrame` grouping
    work from.  ``kinds`` holds one code per probe (``KIND_EQUALITY``,
    ``KIND_RANGE``, ``KIND_JOIN``); ``rel``/``attr`` index ``names`` for
    every probe (a join's left side).  The other columns hold one entry
    per probe *of their kind*, in batch order: ``values`` for
    equalities; ``lows``/``highs`` (``None`` = open) and the
    ``include_low``/``include_high`` flags for ranges;
    ``right_rel``/``right_attr`` for joins.  Value and bound columns
    follow :func:`value_column`: int64 or float64 arrays when every
    entry is a plain ``int`` within int64 or every entry a plain
    ``float``, Python lists otherwise.
    """

    kinds: np.ndarray
    names: list
    rel: np.ndarray
    attr: np.ndarray
    values: ValueColumn
    lows: ValueColumn
    highs: ValueColumn
    include_low: np.ndarray
    include_high: np.ndarray
    right_rel: np.ndarray
    right_attr: np.ndarray

    def __len__(self) -> int:
        return int(self.kinds.size)

    @classmethod
    def from_probes(cls, probes: Sequence[Probe]) -> "ProbeColumns":
        """Extract the columns of a probe sequence.

        Raises ``TypeError`` for any element that is not an
        ``EqualityProbe``, ``RangeProbe``, or ``JoinProbe``.
        """
        probe_list = probes if isinstance(probes, list) else list(probes)
        n = len(probe_list)
        kinds = _kinds_of(probe_list)
        table = _NameTable()
        rel = np.zeros(n, dtype=np.int32)
        attr = np.zeros(n, dtype=np.int32)
        values = lows = highs = value_column([])
        include_low = include_high = np.zeros(0, dtype=bool)
        right_rel = right_attr = np.zeros(0, dtype=np.int32)
        for kind, count in enumerate(np.bincount(kinds, minlength=_KIND_COUNT).tolist()):
            if not count:
                continue
            if count == n:
                where: Union[slice, np.ndarray] = slice(None)
                subset = probe_list
            else:
                where = np.nonzero(kinds == kind)[0]
                subset = [probe_list[i] for i in where.tolist()]
            if kind == KIND_JOIN:
                rel[where] = table.ids([p.left_relation for p in subset])
                attr[where] = table.ids([p.left_attribute for p in subset])
                right_rel = table.ids([p.right_relation for p in subset])
                right_attr = table.ids([p.right_attribute for p in subset])
                continue
            rel[where] = table.ids([p.relation for p in subset])
            attr[where] = table.ids([p.attribute for p in subset])
            if kind == KIND_EQUALITY:
                values = value_column([p.value for p in subset])
            else:
                lows = value_column([p.low for p in subset])
                highs = value_column([p.high for p in subset])
                include_low = _flag_column([p.include_low for p in subset])
                include_high = _flag_column([p.include_high for p in subset])
        return cls(
            kinds,
            list(table),
            rel,
            attr,
            values,
            lows,
            highs,
            include_low,
            include_high,
            right_rel,
            right_attr,
        )


class EqualityGroup:
    """One (relation, attribute) equality bucket of a frame."""

    __slots__ = ("relation", "attribute", "positions", "values")

    def __init__(
        self,
        relation: str,
        attribute: str,
        positions: np.ndarray,
        values: Union[np.ndarray, list],
    ):
        self.relation = relation
        self.attribute = attribute
        #: Indices into the original batch (the scatter targets).
        self.positions = positions
        #: Probe values: a numeric ndarray when the whole equality column
        #: vectorizes, a plain list otherwise.
        self.values = values


class RangeGroup:
    """One (relation, attribute, inclusivity) range bucket of a frame."""

    __slots__ = (
        "relation",
        "attribute",
        "include_low",
        "include_high",
        "positions",
        "lows",
        "highs",
        "low_codes",
        "high_codes",
        "low_open",
        "high_open",
    )

    def __init__(
        self,
        relation: str,
        attribute: str,
        include_low: bool,
        include_high: bool,
        positions: np.ndarray,
        lows: list,
        highs: list,
        low_codes: Optional[np.ndarray],
        high_codes: Optional[np.ndarray],
        low_open: Optional[np.ndarray] = None,
        high_open: Optional[np.ndarray] = None,
    ):
        self.relation = relation
        self.attribute = attribute
        self.include_low = include_low
        self.include_high = include_high
        self.positions = positions
        #: Original bounds (needed for exact-path tables and error text).
        self.lows = lows
        self.highs = highs
        #: Pre-converted float64 bound columns (open bounds at ±inf), or
        #: ``None`` when some bound is not numeric.
        self.low_codes = low_codes
        self.high_codes = high_codes
        #: Open-bound masks matching the code columns (``None`` when that
        #: side has no ``None`` bound).
        self.low_open = low_open
        self.high_open = high_open


class JoinGroup:
    """One distinct join key of a frame (computed once, scattered to all)."""

    __slots__ = (
        "left_relation",
        "left_attribute",
        "right_relation",
        "right_attribute",
        "positions",
    )

    def __init__(
        self,
        left_relation: str,
        left_attribute: str,
        right_relation: str,
        right_attribute: str,
        positions: np.ndarray,
    ):
        self.left_relation = left_relation
        self.left_attribute = left_attribute
        self.right_relation = right_relation
        self.right_attribute = right_attribute
        self.positions = positions


def _group_slices(gids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(order, starts, ends) partitioning non-negative ``gids`` into equal-id runs."""
    # NumPy's stable sort is a radix sort for integers of 16 bits or
    # less, so the keys are narrowed to the smallest dtype holding them.
    gids = gids.astype(np.min_scalar_type(int(gids.max())), copy=False)
    order = np.argsort(gids, kind="stable")
    sorted_gids = gids[order]
    cuts = np.nonzero(sorted_gids[1:] != sorted_gids[:-1])[0] + 1
    starts = np.concatenate(([0], cuts))
    ends = np.concatenate((cuts, [gids.size]))
    return order, starts, ends


def _pair_keys(
    base: int, first: np.ndarray, second: np.ndarray
) -> Optional[np.ndarray]:
    """One int64 key per (first, second) id pair; ``None`` if all are equal."""
    first_varies = bool(first.min() != first.max())
    second_varies = bool(second.min() != second.max())
    if not first_varies and not second_varies:
        return None
    if not first_varies:
        return second.astype(np.int64)
    keys = first.astype(np.int64)
    if second_varies:
        keys = keys * base + second
    return keys


def _first_seen(ids: list, heads: list) -> dict:
    """Each id's earliest head offset (heads are per-run first offsets)."""
    first: dict = {}
    for ident, head in zip(ids, heads):
        if first.get(ident, head) >= head:
            first[ident] = head
    return first


def _ordered_runs(
    keys: Optional[np.ndarray], rel: np.ndarray, attr: np.ndarray, *flags: np.ndarray
) -> tuple[Optional[np.ndarray], list[tuple[int, int, int]]]:
    """``(order, runs)``: runs of equal ``keys`` in canonical group order.

    Each run is ``(head, start, end)``: ``order[start:end]`` lists its
    offsets, ascending, and ``head`` is the first of them.  Runs are
    ordered by the first occurrence of their relation, then of their
    attribute, then by *flags* (``False`` first).  The order does not
    depend on how the name table was numbered, so a frame built from
    wire columns emits its traces in the same order as one built from
    the probe objects.  ``keys=None`` means one run of the whole column,
    already in order (``order`` is then ``None``).
    """
    if keys is None:
        return None, [(0, 0, rel.size)]
    order, starts, ends = _group_slices(keys)
    # A stable sort keeps each run ascending: its first entry is its head.
    heads = order[starts]
    head_list = heads.tolist()
    rel_ids = rel[heads].tolist()
    attr_ids = attr[heads].tolist()
    rel_first = _first_seen(rel_ids, head_list)
    attr_first = _first_seen(attr_ids, head_list)
    flag_lists = [flag[heads].tolist() for flag in flags]
    ranks = [
        (rel_first[r], attr_first[a], *extra)
        for r, a, *extra in zip(rel_ids, attr_ids, *flag_lists)
    ]
    # Ranks are distinct per run, so the sort never compares past them.
    runs = sorted(zip(ranks, head_list, starts.tolist(), ends.tolist()))
    return order, [(head, start, end) for _, head, start, end in runs]


def _sorted_column(column: ValueColumn, order: Optional[np.ndarray]) -> ValueColumn:
    if order is None:
        return column
    if isinstance(column, np.ndarray):
        return column[order]
    return [column[i] for i in order.tolist()]


def _group_equalities(
    names: list,
    rel: np.ndarray,
    attr: np.ndarray,
    values: ValueColumn,
    positions: np.ndarray,
) -> list[EqualityGroup]:
    arr = probe_code_array(values)
    order, runs = _ordered_runs(_pair_keys(len(names), rel, attr), rel, attr)
    positions = _sorted_column(positions, order)
    values = _sorted_column(values if arr is None else arr, order)
    return [
        EqualityGroup(
            names[rel[head]],
            names[attr[head]],
            positions[start:end],
            values[start:end],
        )
        for head, start, end in runs
    ]


def _group_ranges(
    names: list,
    rel: np.ndarray,
    attr: np.ndarray,
    lows: ValueColumn,
    highs: ValueColumn,
    include_low: np.ndarray,
    include_high: np.ndarray,
    positions: np.ndarray,
) -> list[RangeGroup]:
    keys = _pair_keys(len(names), rel, attr)
    # Inclusivity bits are usually uniform across a workload; encode them
    # into the group key only when they actually vary.
    low_varies = bool(include_low.any()) and not bool(include_low.all())
    high_varies = bool(include_high.any()) and not bool(include_high.all())
    if low_varies or high_varies:
        keys = np.zeros(rel.size, dtype=np.int64) if keys is None else keys
        if low_varies:
            keys = keys * 2 + include_low
        if high_varies:
            keys = keys * 2 + include_high
    order, runs = _ordered_runs(keys, rel, attr, include_low, include_high)
    positions = _sorted_column(positions, order)
    lows = _sorted_column(lows, order)
    highs = _sorted_column(highs, order)
    numeric = isinstance(lows, np.ndarray) and isinstance(highs, np.ndarray)
    if numeric:
        # Numeric columns hold no open bound: the code columns are the
        # bounds themselves (converted exactly as range_bound_arrays would).
        low_codes, high_codes = lows.astype(np.float64), highs.astype(np.float64)
    lows = lows.tolist() if isinstance(lows, np.ndarray) else lows
    highs = highs.tolist() if isinstance(highs, np.ndarray) else highs
    groups = []
    for head, start, end in runs:
        group_lows, group_highs = lows[start:end], highs[start:end]
        if numeric:
            bounds: tuple = (low_codes[start:end], high_codes[start:end], None, None)
        else:
            bounds = range_bound_arrays(group_lows, group_highs) or (None, None, None, None)
        groups.append(
            RangeGroup(
                names[rel[head]],
                names[attr[head]],
                bool(include_low[head]),
                bool(include_high[head]),
                positions[start:end],
                group_lows,
                group_highs,
                *bounds,
            )
        )
    return groups


def _group_joins(
    names: list,
    rel: np.ndarray,
    attr: np.ndarray,
    right_rel: np.ndarray,
    right_attr: np.ndarray,
    positions: np.ndarray,
) -> list[JoinGroup]:
    """One group per distinct join key, in first-occurrence order."""
    base = len(names)
    # Each side's (relation, attribute) pair, ranked densely so the
    # combined key stays below count**2 however many names there are.
    _, left = np.unique(rel.astype(np.int64) * base + attr, return_inverse=True)
    _, right = np.unique(right_rel.astype(np.int64) * base + right_attr, return_inverse=True)
    order, starts, ends = _group_slices(left * (int(right.max()) + 1) + right)
    # A stable sort keeps each run ascending: its first entry is its head.
    heads = order[starts]
    rank = np.argsort(heads)
    heads = heads[rank]
    positions = positions[order]
    return [
        JoinGroup(names[r], names[a], names[rr], names[ra], positions[start:end])
        for r, a, rr, ra, start, end in zip(
            rel[heads].tolist(),
            attr[heads].tolist(),
            right_rel[heads].tolist(),
            right_attr[heads].tolist(),
            starts[rank].tolist(),
            ends[rank].tolist(),
        )
    ]


class ProbeFrame:
    """A probe batch in columnar, pre-grouped form.

    Construction groups the batch's columns exactly once; answering a
    frame is then pure per-group array work, and the same frame can be
    answered repeatedly (each call returns a fresh result vector).  A
    frame holds its groups and the batch length only, never the probe
    objects: every position is reached through some group's
    ``positions``.
    """

    __slots__ = ("equality_groups", "range_groups", "join_groups", "_length")

    def __init__(
        self,
        length: int,
        equality_groups: list[EqualityGroup],
        range_groups: list[RangeGroup],
        join_groups: list[JoinGroup],
    ):
        self.equality_groups = equality_groups
        self.range_groups = range_groups
        self.join_groups = join_groups
        self._length = length

    def __len__(self) -> int:
        return self._length

    @property
    def group_count(self) -> int:
        """Total number of (relation, attribute, kind) buckets."""
        return (
            len(self.equality_groups)
            + len(self.range_groups)
            + len(self.join_groups)
        )

    @classmethod
    def from_probes(cls, probes: Union[Sequence[Probe], Iterable[Probe]]) -> "ProbeFrame":
        """Group a probe sequence into its columnar serving form.

        Extracts the batch's :class:`ProbeColumns`, then groups them as
        :meth:`from_columns` does.  Raises ``TypeError`` for any element
        that is not an ``EqualityProbe``, ``RangeProbe``, or ``JoinProbe``.
        """
        return cls.from_columns(ProbeColumns.from_probes(probes))

    @classmethod
    def from_columns(cls, columns: ProbeColumns) -> "ProbeFrame":
        """Group a column-form batch without building its probe objects.

        The columns must line up as :meth:`ProbeColumns.from_probes` and
        :func:`~repro.net.protocol.columns_from_wire` build them (the
        wire decoder is where outside input is checked).
        """
        kinds = columns.kinds
        n = kinds.size
        names = columns.names
        groups: list[list] = [[], [], []]
        for kind, count in enumerate(np.bincount(kinds, minlength=_KIND_COUNT).tolist()):
            if not count:
                continue
            if count == n:
                positions = np.arange(n, dtype=np.intp)
                rel, attr = columns.rel, columns.attr
            else:
                positions = np.nonzero(kinds == kind)[0]
                rel, attr = columns.rel[positions], columns.attr[positions]
            if kind == KIND_EQUALITY:
                groups[kind] = _group_equalities(
                    names, rel, attr, columns.values, positions
                )
            elif kind == KIND_RANGE:
                groups[kind] = _group_ranges(
                    names,
                    rel,
                    attr,
                    columns.lows,
                    columns.highs,
                    columns.include_low,
                    columns.include_high,
                    positions,
                )
            else:
                groups[kind] = _group_joins(
                    names, rel, attr, columns.right_rel, columns.right_attr, positions
                )
        return cls(n, *groups)
