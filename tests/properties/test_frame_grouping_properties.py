"""Property suite: ProbeFrame grouping at every group-key width.

``ProbeFrame`` sorts each kind's group keys after narrowing them to the
smallest unsigned dtype that holds them, so a batch's key width decides
which sort runs: up to 8 or 16 bits is a radix sort, wider keys are not.
These properties draw batches over up to 300 relation and 300 attribute
names (enough for keys past 16 bits, and for two keys 2**16 apart) with
many distinct join pairs, and check that

* ``ProbeFrame.from_probes`` and ``from_columns`` over the wire v3
  round trip build the same frame group for group: names, flags,
  positions, value dtypes and code bits;
* both equal a dict-based reference grouper in canonical order: first
  occurrence of the relation, then of the attribute, then the
  inclusivity flags (``False`` first); joins in first-occurrence order.
"""

import json

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net import protocol
from repro.serve import EqualityProbe, JoinProbe, ProbeColumns, ProbeFrame, RangeProbe

RELATIONS = [f"R{index}" for index in range(300)]
ATTRIBUTES = [f"a{index}" for index in range(300)]

#: Value families, each drawn per entry from a seeded generator: plain
#: int64 ints, ints at and beyond the int64 edge, floats, and a mix.
FAMILIES = ("small", "edge", "float", "mixed")
MIXED = ["x", "yy", b"\x00", (1, "a"), True, False, 2**70, -0.0, 3, 2.5]
#: (equality, range, join) shares of a batch.
MIXES = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0.5, 0.3, 0.2), (0.2, 0.2, 0.6))


def draw_value(gen, family):
    if family == "small":
        return int(gen.integers(-3, 9))
    if family == "edge":
        return int(gen.choice([2**53 - 1, 2**53 + 1, 2**63 - 1, -(2**63), 7]))
    if family == "float":
        return float(gen.choice([-0.0, 0.5, 1e300, float(gen.normal() * 1e3)]))
    return MIXED[int(gen.integers(len(MIXED)))]


def make_batch(relations, attributes, size, mix, family, open_share, seed):
    """A batch whose first probes intern every relation name, then random."""
    gen = np.random.default_rng(seed)
    rels = gen.integers(0, relations, size=size)
    head = min(size, relations)
    rels[:head] = gen.permutation(relations)[:head]
    kinds = gen.choice(3, size=size, p=np.asarray(mix) / sum(mix))
    probes = []
    for rel, kind in zip(rels.tolist(), kinds.tolist()):
        relation = RELATIONS[rel]
        attribute = ATTRIBUTES[int(gen.integers(attributes))]
        if kind == 0:
            probes.append(EqualityProbe(relation, attribute, draw_value(gen, family)))
        elif kind == 1:
            low, high = (
                None if gen.random() < open_share else draw_value(gen, family)
                for _ in range(2)
            )
            flags = gen.random(2) < 0.5
            probes.append(
                RangeProbe(
                    relation,
                    attribute,
                    low,
                    high,
                    include_low=bool(flags[0]),
                    include_high=bool(flags[1]),
                )
            )
        else:
            right = RELATIONS[int(gen.integers(relations))]
            probes.append(
                JoinProbe(relation, attribute, right, ATTRIBUTES[int(gen.integers(attributes))])
            )
    return probes


def reference_groups(probes):
    """Each kind's ``(key, positions)`` in canonical order, from plain dicts."""
    buckets = ({}, {}, {})
    for position, probe in enumerate(probes):
        if isinstance(probe, EqualityProbe):
            key, kind = (probe.relation, probe.attribute), 0
        elif isinstance(probe, RangeProbe):
            key = (probe.relation, probe.attribute, probe.include_low, probe.include_high)
            kind = 1
        else:
            key = (
                probe.left_relation,
                probe.left_attribute,
                probe.right_relation,
                probe.right_attribute,
            )
            kind = 2
        buckets[kind].setdefault(key, []).append(position)
    ordered = []
    for kind in (0, 1):
        first_relation, first_attribute = {}, {}
        for key, positions in buckets[kind].items():
            first_relation.setdefault(key[0], positions[0])
            first_attribute.setdefault(key[1], positions[0])
        ordered.append(
            sorted(
                buckets[kind].items(),
                key=lambda item: (
                    first_relation[item[0][0]],
                    first_attribute[item[0][1]],
                    *item[0][2:],
                ),
            )
        )
    ordered.append(list(buckets[2].items()))
    return ordered


def column_key(column):
    """A column's exact content: dtype and bytes, or the typed entries of a list."""
    if column is None:
        return None
    if isinstance(column, np.ndarray):
        return column.dtype.str, column.shape, column.tobytes()
    assert isinstance(column, list)
    return "list", [(type(entry), repr(entry)) for entry in column]


def frame_groups(frame):
    """Each kind's groups as ``(key, positions)`` plus every column they carry."""
    equalities = [
        ((g.relation, g.attribute), g.positions.tolist(), column_key(g.positions), column_key(g.values))
        for g in frame.equality_groups
    ]
    ranges = [
        (
            (g.relation, g.attribute, g.include_low, g.include_high),
            g.positions.tolist(),
            column_key(g.positions),
            *(
                column_key(column)
                for column in (g.lows, g.highs, g.low_codes, g.high_codes, g.low_open, g.high_open)
            ),
        )
        for g in frame.range_groups
    ]
    joins = [
        (
            (g.left_relation, g.left_attribute, g.right_relation, g.right_attribute),
            g.positions.tolist(),
            column_key(g.positions),
        )
        for g in frame.join_groups
    ]
    return [equalities, ranges, joins]


@settings(max_examples=60, deadline=None)
@given(
    relations=st.sampled_from([1, 2, 5, 40, 130, 300]),
    attributes=st.sampled_from([1, 3, 60, 300]),
    size=st.integers(min_value=1, max_value=700),
    mix=st.sampled_from(MIXES),
    family=st.sampled_from(FAMILIES),
    open_share=st.sampled_from([0.0, 0.2]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
# 300 interned relations push every kind's keys past 16 bits.
@example(relations=300, attributes=3, size=700, mix=MIXES[3], family="small", open_share=0.0, seed=1)
@example(relations=300, attributes=300, size=700, mix=MIXES[4], family="mixed", open_share=0.2, seed=2)
def test_from_probes_equals_wire_frame_and_reference(
    relations, attributes, size, mix, family, open_share, seed
):
    probes = make_batch(relations, attributes, size, mix, family, open_share, seed)
    local = ProbeFrame.from_probes(probes)
    wire = json.loads(json.dumps(protocol.probes_to_columns(probes), allow_nan=False))
    columns, failed = protocol.columns_from_wire(wire)
    assert not failed.any()
    remote = ProbeFrame.from_columns(columns)
    assert frame_groups(local) == frame_groups(remote)
    expected = reference_groups(probes)
    for groups, reference in zip(frame_groups(local), expected):
        assert [(group[0], group[1]) for group in groups] == reference


def test_join_keys_that_a_naive_four_id_key_would_merge():
    """With 2**17 names, ``((a * n + b) * n + c) * n + d`` wraps int64 onto
    one value for left relation ids 0 and 2**13; the groups stay apart."""
    fillers = 2**16 - 1
    # Equalities intern E0..E65534 as ids 0.., then A0..A65534; the joins
    # add two names, for 2**17 in all.
    probes = [EqualityProbe(f"E{i}", f"A{i}", i) for i in range(fillers)]
    probes += [JoinProbe("E0", "A0", "Y", "b"), JoinProbe("E8192", "A0", "Y", "b")]
    columns = ProbeColumns.from_probes(probes)
    assert len(columns.names) == 2**17
    assert columns.names.index("E8192") == 2**13
    joins = [(key, positions) for key, positions, _ in frame_groups(ProbeFrame.from_probes(probes))[2]]
    assert joins == [
        (("E0", "A0", "Y", "b"), [fillers]),
        (("E8192", "A0", "Y", "b"), [fillers + 1]),
    ]
