"""Columnar batches answer exactly like row-form ones.

A ``batch`` may carry ``columns`` (kind codes, interned names, raw
int64/float64 value columns, tagged values only where a column is not
plain numeric) instead of one JSON object per probe.  Test names say
"v3" for the column form and "v2" for the row form, the form the
retired schema v2 sent; both now travel at the one wire version.  The
contract:

* for any batch, columns == rows == in-process ``estimate_batch``, bit
  for bit, with identical ``trace=`` records in identical order;
* the v3 encoder refuses exactly what the row codec refuses;
* a bad name index or an undecodable tagged value degrades only its own
  position (``wire-decode-failed``); structural junk is a typed
  ``protocol-error`` and the connection survives;
* quota/backpressure verdicts are the per-entry loop's, as masks;
* the HTTP shim answers a ``columns`` body like a ``probes`` body.
"""

from __future__ import annotations

import asyncio
import base64
import copy
import dataclasses
import http.client
import json
import socket

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.biased import v_opt_bias_hist
from repro.engine.analyze import analyze_relation
from repro.engine.catalog import CatalogEntry, StatsCatalog
from repro.engine.relation import Relation
from repro.net import (
    AsyncEstimationClient,
    EstimationClient,
    EstimationServer,
    RemoteBatchError,
    TenantConfig,
    WireCodecError,
    protocol,
    serve_in_thread,
)
from repro.net.client import BatchCall, join_chunks
from repro.net.server import _TenantState
from repro.obs import runtime
from repro.obs.tracing import clear_span_sinks
from repro.serve import (
    EqualityProbe,
    EstimationService,
    JoinProbe,
    ProbeColumns,
    ProbeFrame,
    RangeProbe,
)
from repro.serve.service import REASON_BACKPRESSURE, REASON_QUOTA_EXCEEDED

from tests.net.test_server_client import mixed_probes, trace_key
from tests.properties.test_frame_grouping_properties import column_key


def build_service():
    catalog = StatsCatalog()
    r = Relation.from_columns(
        "R", {"a": [1] * 40 + [2] * 25 + [3] * 20 + [4] * 10 + [5] * 5}
    )
    s = Relation.from_columns("S", {"a": [1] * 10 + [2] * 10 + [3] * 10})
    # Integers at and beyond 2**53 and beyond int64, plus signed zeros.
    b = Relation.from_columns(
        "B",
        {"a": [2**53] * 5 + [2**53 + 1] * 3 + [2**63 + 7] * 2 + [-0.0] * 4 + [0.5] * 2},
    )
    analyze_relation(r, "a", catalog, kind="serial", buckets=3)
    analyze_relation(s, "a", catalog, kind="end-biased", buckets=2)
    analyze_relation(b, "a", catalog, kind="serial", buckets=2)
    hist = v_opt_bias_hist([6.0, 3.0, 1.0], 2, values=["a", "b", "c"])
    catalog.put(CatalogEntry("T", "s", "biased", hist, None, 3, 10.0))
    return EstimationService(catalog)


@pytest.fixture(autouse=True)
def fresh_obs():
    runtime.reset()
    clear_span_sinks()
    yield
    runtime.reset()
    clear_span_sinks()


@pytest.fixture
def service():
    return build_service()


class RawPeer:
    """One handshaken connection driving the SDK core."""

    def __init__(self, address, token=None):
        self._sock = socket.create_connection(address, timeout=30.0)
        self._decoder = protocol.FrameDecoder()
        self._pending = []
        self._next_id = 1
        self.send(protocol.hello_request(token=token))
        assert self.recv()["op"] == "welcome"

    def close(self):
        self._sock.close()

    def send(self, frame):
        self._sock.sendall(protocol.encode_frame(frame))

    def recv(self):
        while not self._pending:
            data = self._sock.recv(65536)
            assert data, "server closed the connection"
            self._pending.extend(self._decoder.feed(data))
        frame = self._pending.pop(0)
        assert frame["v"] == protocol.WIRE_SCHEMA_VERSION
        return frame

    def batch(self, probes, on_error=None, form="columns"):
        """(estimates, traces) for *probes*, read back through a BatchCall.

        ``form="probes"`` sends the same batch in the row form instead of
        the SDK's column form.
        """
        traces = []
        call = BatchCall(
            probes, request_id=self._next_id, on_error=on_error, trace=traces.append
        )
        request = call.request()
        assert "columns" in request
        if form == "probes":
            request = protocol.batch_request(
                protocol.probes_to_wire(probes),
                request_id=self._next_id,
                on_error=on_error,
                want_traces=True,
            )
        self._next_id += 1
        self.send(request)
        chunks = []
        while not call.done:
            chunks.append(call.consume(self.recv()))
        return join_chunks(chunks), traces

    def raw_batch(self, request):
        """Send a hand-built request; return every reply frame up to eof/error."""
        self.send(request)
        frames = []
        while True:
            frame = self.recv()
            frames.append(frame)
            if frame["op"] == "error" or frame.get("eof"):
                return frames


def chunk_estimates(frames):
    return np.concatenate(
        [protocol.decode_estimates(f["estimates"]) for f in frames if f["op"] == "chunk"]
    )


def chunk_traces(frames):
    return [protocol.trace_from_wire(t) for f in frames for t in f.get("traces", [])]


# ---------------------------------------------------------------------------
# columns == rows == in-process, for arbitrary mixed batches
# ---------------------------------------------------------------------------

#: Value families: a batch draws one, so homogeneous columns (the raw
#: int64/float64 path) and mixed ones (the tagged path) both occur.
VALUE_FAMILIES = [
    st.integers(min_value=-3, max_value=8),
    st.one_of(
        st.integers(min_value=2**53 - 2, max_value=2**53 + 2),
        st.integers(min_value=2**63 - 2, max_value=2**63 + 8),
        st.integers(min_value=-(2**63) - 2, max_value=-(2**63) + 2),
    ),
    st.one_of(
        st.sampled_from([-0.0, 0.0, 0.5, 2.5, 1e300]),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    st.one_of(
        st.integers(min_value=-3, max_value=8),
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from(["a", "b", "c", "zz", 2**53 + 1, 2**70, -0.0]),
        st.binary(max_size=3),
        st.tuples(st.integers(0, 3), st.text(max_size=2)),
        st.booleans(),
    ),
]
RELATIONS = st.sampled_from(["R", "S", "T", "B", "ZZZ"])
ATTRIBUTES = st.sampled_from(["a", "s", "zz"])


@st.composite
def mixed_batches(draw):
    values = draw(st.sampled_from(VALUE_FAMILIES))
    bounds = st.one_of(st.none(), values)
    probes = []
    for _ in range(draw(st.integers(min_value=0, max_value=14))):
        kind = draw(st.integers(min_value=0, max_value=2))
        if kind == 0:
            probes.append(EqualityProbe(draw(RELATIONS), draw(ATTRIBUTES), draw(values)))
        elif kind == 1:
            probes.append(
                RangeProbe(
                    draw(RELATIONS),
                    draw(ATTRIBUTES),
                    draw(bounds),
                    draw(bounds),
                    include_low=draw(st.booleans()),
                    include_high=draw(st.booleans()),
                )
            )
        else:
            probes.append(
                JoinProbe(draw(RELATIONS), draw(ATTRIBUTES), draw(RELATIONS), draw(ATTRIBUTES))
            )
    return probes


@pytest.fixture(scope="module")
def shared():
    runtime.reset()
    service = build_service()
    with serve_in_thread(service, name="v3-props") as handle:
        peer = RawPeer(handle.address)
        try:
            yield service, peer
        finally:
            peer.close()


#: The autouse obs reset runs once per test, not per example — harmless.
PROPERTY = settings(
    deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@settings(PROPERTY, max_examples=80)
@given(probes=mixed_batches(), on_error=st.sampled_from(["fallback", "nan"]))
def test_v3_equals_v2_equals_in_process(shared, probes, on_error):
    service, peer = shared
    local_traces = []
    local = service.estimate_batch(probes, on_error=on_error, trace=local_traces.append)
    expected = [trace_key(t) for t in local_traces]
    for form in ("probes", "columns"):
        estimates, traces = peer.batch(probes, on_error=on_error, form=form)
        assert estimates.tobytes() == local.tobytes(), form
        assert [trace_key(t) for t in traces] == expected, form


def assert_same_columns(left, right):
    assert left.names == right.names
    for field in dataclasses.fields(ProbeColumns):
        if field.name != "names":
            got, want = getattr(left, field.name), getattr(right, field.name)
            assert column_key(got) == column_key(want), field.name


@settings(PROPERTY, max_examples=40)
@given(probes=mixed_batches())
def test_columns_round_trip_through_json_to_the_same_frame(probes):
    wire = json.loads(json.dumps(protocol.probes_to_columns(probes), allow_nan=False))
    columns, failed = protocol.columns_from_wire(wire)
    assert not failed.any()
    # One typing rule on both paths: the extracted columns equal the
    # decoded ones field by field, dtype included.
    assert_same_columns(ProbeColumns.from_probes(probes), columns)


UNENCODABLE = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    st.sampled_from([[1], {"a": 1}, frozenset({1}), 1j, np.int64(3), object()]),
    st.integers(min_value=0, max_value=3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=2),
    st.none(),
)


@settings(PROPERTY, max_examples=150)
@given(
    values=st.lists(UNENCODABLE, max_size=5),
    kinds=st.lists(st.booleans(), min_size=5, max_size=5),
)
def test_v3_encoder_refuses_exactly_what_v2_refuses(values, kinds):
    probes = [
        EqualityProbe("R", "a", value) if as_eq else RangeProbe("R", "a", value, None)
        for value, as_eq in zip(values, kinds)
    ]
    outcomes = []
    for encode in (protocol.probes_to_wire, protocol.probes_to_columns):
        try:
            encode(probes)
            outcomes.append(None)
        except WireCodecError:
            outcomes.append(WireCodecError)
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("name", [["R"], np.array([1, 2]), np.array(["R"])])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_unhashable_names_are_refused(name, position):
    probes = [EqualityProbe("R", "a", 1), EqualityProbe("R", "a", 2), EqualityProbe("R", "a", 3)]
    probes[position] = EqualityProbe(name, "a", 1)
    with pytest.raises(WireCodecError, match="unhashable"):
        protocol.probes_to_columns(probes)


def test_typed_columns_only_for_plain_numbers():
    def dtypes(probes):
        wire = protocol.probes_to_columns(probes)
        return wire["value"]["dtype"], wire["low"]["dtype"], "null" in wire["low"]

    def in_process(probes):
        columns = ProbeColumns.from_probes(probes)
        return tuple(
            str(column.dtype) if isinstance(column, np.ndarray) else "list"
            for column in (columns.values, columns.lows)
        )

    ints = [EqualityProbe("R", "a", 2**62), RangeProbe("R", "a", None, 3)]
    assert dtypes(ints) == ("<i8", "<i8", True)
    assert in_process(ints) == ("int64", "list")
    floats = [EqualityProbe("R", "a", -0.0), RangeProbe("R", "a", 0.5, 3)]
    assert dtypes(floats) == ("<f8", "<f8", False)
    assert in_process(floats) == ("float64", "float64")
    # An empty column is an int64 array, as the decoder yields it.
    assert in_process([RangeProbe("R", "a", 0.5, 3.0)]) == ("int64", "float64")
    assert dtypes([EqualityProbe("R", "a", 2**63)])[0] == "tagged"
    assert in_process([EqualityProbe("R", "a", 2**63)])[0] == "list"
    assert dtypes([EqualityProbe("R", "a", True)])[0] == "tagged"
    assert in_process([EqualityProbe("R", "a", True)])[0] == "list"
    mixed = [EqualityProbe("R", "a", 1), EqualityProbe("R", "a", 1.0)]
    assert dtypes(mixed)[0] == "tagged"
    assert in_process(mixed)[0] == "list"
    assert in_process([EqualityProbe("R", "a", np.int64(3))])[0] == "list"


# ---------------------------------------------------------------------------
# The 10k mixed batch, three ways, under every on_error policy
# ---------------------------------------------------------------------------


class TestTenThousandAtV3:
    @pytest.mark.parametrize("on_error", ["fallback", "nan", "raise"])
    def test_three_ways(self, service, on_error):
        probes = mixed_probes(10_000)
        try:
            local_traces = []
            local = service.estimate_batch(
                probes, on_error=on_error, trace=local_traces.append
            )
            local_error = None
        except Exception as exc:  # the "raise" policy
            local_error = exc
        with serve_in_thread(service, name="v3-10k") as handle:
            host, port = handle.address

            def sync_run(traces):
                with EstimationClient(host, port) as client:
                    return client.estimate_batch(probes, on_error=on_error, trace=traces.append)

            async def async_run(traces):
                async with AsyncEstimationClient(host, port) as client:
                    return await client.estimate_batch(
                        probes, on_error=on_error, trace=traces.append
                    )

            runs = (sync_run, lambda traces: asyncio.run(async_run(traces)))
            for run in runs:
                traces = []
                if local_error is not None:
                    with pytest.raises(RemoteBatchError) as excinfo:
                        run(traces)
                    assert excinfo.value.error_type == type(local_error).__name__
                    assert excinfo.value.detail == str(local_error)
                    continue
                out = run(traces)
                assert out.tobytes() == local.tobytes()
                # Chunks carry the traces of their own positions, so a
                # multi-chunk stream reorders them across chunks.
                assert sorted(map(trace_key, traces)) == sorted(map(trace_key, local_traces))
        if local_error is None:
            assert {"unknown-relation", "incomparable-bound"} <= {
                t.reason for t in local_traces
            }


# ---------------------------------------------------------------------------
# Poisoned entries degrade alone; structural junk is a typed refusal
# ---------------------------------------------------------------------------


def _ids(values):
    return protocol._encode_array(np.asarray(values, dtype=np.int32), "<i4")


def _poke(wire, field, position, value):
    """Overwrite one entry of an int32 index column in place."""
    ids = np.frombuffer(base64.b64decode(wire[field]["data"]), dtype="<i4").copy()
    ids[position] = value
    wire[field] = _ids(ids)


GOOD = [
    EqualityProbe("R", "a", 1),
    RangeProbe("R", "a", 1, 3),
    JoinProbe("R", "a", "S", "a"),
    EqualityProbe("T", "s", "b"),
]


class TestPoisonedColumns:
    @pytest.mark.parametrize(
        "poison, position",
        [
            (lambda w: _poke(w, "rel", 3, 99), 3),  # index past the table
            (lambda w: _poke(w, "attr", 1, -1), 1),  # negative index
            (lambda w: _poke(w, "attr2", 0, 7), 2),  # a join's right side
            (lambda w: w["names"].__setitem__(3, 5), 3),  # "s" is not a string
            (lambda w: w["value"]["items"].__setitem__(1, {"t": "mystery"}), 3),
        ],
    )
    def test_bad_entry_degrades_alone(self, service, poison, position):
        local = service.estimate_batch(GOOD)
        wire = protocol.probes_to_columns(GOOD)
        assert wire["names"] == ["R", "T", "a", "s", "S"]
        assert wire["value"]["dtype"] == "tagged"  # mixed int/str equality column
        poison(wire)
        with serve_in_thread(service) as handle:
            peer = RawPeer(handle.address)
            try:
                frames = peer.raw_batch(
                    protocol.columns_request(wire, request_id=5, want_traces=True)
                )
            finally:
                peer.close()
        estimates = chunk_estimates(frames)
        keep = [i for i in range(len(GOOD)) if i != position]
        assert estimates[keep].tobytes() == local[keep].tobytes()
        assert estimates[position] == 0.0  # the undecodable fallback
        traces = chunk_traces(frames)
        assert [(t.position, t.reason) for t in traces] == [
            (position, protocol.REASON_WIRE_DECODE)
        ]
        assert traces[0].relation == protocol.UNDECODABLE_NAME
        assert service.stats().rejection_reasons == {protocol.REASON_WIRE_DECODE: 1}

    @pytest.mark.parametrize(
        "damage",
        [
            lambda w: w["rel"].update(n=3),  # length mismatch
            lambda w: w.update(attr=_ids([0, 1])),  # column shorter than n
            lambda w: w["kind"].update(data="!!not base64!!"),
            lambda w: w["value"].update(dtype="<c16"),  # unknown dtype
            lambda w: w["kind"].update(data=base64.b64encode(bytes([0, 1, 2, 7])).decode()),
            lambda w: w["incl"].update(data=base64.b64encode(bytes([9])).decode()),
            lambda w: w.pop("low"),
            lambda w: w.update(n="4"),
            lambda w: w.update(names="R,a"),
            lambda w: w["value"].update(items=[1]),  # tagged count mismatch
        ],
    )
    def test_structural_junk_is_a_protocol_error(self, service, damage):
        wire = protocol.probes_to_columns(GOOD)
        damage(wire)
        with serve_in_thread(service) as handle:
            peer = RawPeer(handle.address)
            try:
                frames = peer.raw_batch(protocol.columns_request(wire, request_id=9))
                assert [(f["op"], f.get("code"), f.get("id")) for f in frames] == [
                    ("error", "protocol-error", 9)
                ]
                # The connection survives: the next batch is answered.
                estimates, _ = peer.batch(GOOD)
            finally:
                peer.close()
        assert estimates.tobytes() == service.estimate_batch(GOOD).tobytes()

    def test_probes_and_columns_together_are_refused(self, service):
        body = protocol.columns_request(protocol.probes_to_columns(GOOD), request_id=4)
        body["probes"] = protocol.probes_to_wire(GOOD)
        with serve_in_thread(service) as handle:
            peer = RawPeer(handle.address)
            try:
                frames = peer.raw_batch(body)
            finally:
                peer.close()
        assert frames[0]["code"] == "protocol-error"


# ---------------------------------------------------------------------------
# Admission: masks equal the per-entry loop; row and column verdicts agree
# ---------------------------------------------------------------------------


def reference_verdicts(failed, limits, pending):
    """The per-entry admission loop the mask computation replaced."""
    verdicts = []
    for index, bad in enumerate(failed):
        verdict = protocol.REASON_WIRE_DECODE if bad else None
        if verdict is None and limits.max_probes_per_batch:
            if index >= limits.max_probes_per_batch:
                verdict = REASON_QUOTA_EXCEEDED
        if verdict is None and limits.max_pending_probes:
            if pending >= limits.max_pending_probes:
                verdict = REASON_BACKPRESSURE
            else:
                pending += 1
        verdicts.append(verdict)
    return verdicts, pending


@settings(PROPERTY, max_examples=200)
@given(
    failed=st.lists(st.booleans(), max_size=30),
    quota=st.integers(min_value=0, max_value=12),
    bound=st.integers(min_value=0, max_value=12),
    pending=st.integers(min_value=0, max_value=15),
)
def test_admission_masks_equal_the_per_entry_loop(failed, quota, bound, pending):
    limits = TenantConfig(
        name="t", token="k", max_probes_per_batch=quota, max_pending_probes=bound
    )
    server = EstimationServer(EstimationService(StatsCatalog()), tenants=[limits])
    tenant = _TenantState(limits, pending_probes=pending)
    batch = server._admit(list(range(len(failed))), np.array(failed, dtype=bool), tenant)
    expected, pending_after = reference_verdicts(failed, limits, pending)
    assert list(batch.verdicts) == expected
    assert tenant.pending_probes == pending_after
    assert batch.admitted == expected.count(None)


class TestAdmissionParity:
    def test_every_verdict_matches_between_v2_and_v3(self, service):
        tenants = [
            TenantConfig(
                name="acme", token="tok", max_probes_per_batch=9, max_pending_probes=5
            )
        ]
        probes = [EqualityProbe("R", "a", i % 5) for i in range(4)] + GOOD + GOOD
        rows = protocol.probes_to_wire(probes)
        rows[2] = {"kind": "mystery"}
        columns = protocol.probes_to_columns(probes)
        _poke(columns, "rel", 2, 99)
        results = {}
        with serve_in_thread(service, tenants=tenants) as handle:
            for form, request in (
                ("probes", protocol.batch_request(rows, request_id=1, want_traces=True)),
                ("columns", protocol.columns_request(columns, request_id=1, want_traces=True)),
            ):
                peer = RawPeer(handle.address, token="tok")
                try:
                    frames = peer.raw_batch(request)
                finally:
                    peer.close()
                results[form] = (
                    chunk_estimates(frames).tobytes(),
                    [trace_key(t) for t in chunk_traces(frames)],
                )
        assert results["probes"] == results["columns"]
        verdicts = {key[0]: key[4] for key in results["columns"][1]}
        assert verdicts == {
            2: protocol.REASON_WIRE_DECODE,
            **{position: REASON_BACKPRESSURE for position in (6, 7, 8)},
            **{position: REASON_QUOTA_EXCEEDED for position in (9, 10, 11)},
        }


# ---------------------------------------------------------------------------
# HTTP shim: a columns body answers like a probes body
# ---------------------------------------------------------------------------


def test_http_shim_answers_columns_like_probes(service):
    probes = mixed_probes(64)
    bodies = {
        "probes": protocol.batch_request(
            protocol.probes_to_wire(probes), request_id=1, want_traces=True
        ),
        "columns": protocol.columns_request(
            protocol.probes_to_columns(probes), request_id=1, want_traces=True
        ),
    }
    payloads = {}
    with serve_in_thread(service) as handle:
        for form, body in bodies.items():
            conn = http.client.HTTPConnection(*handle.address, timeout=10)
            conn.request("POST", "/v1/batch", body=json.dumps(body))
            response = conn.getresponse()
            assert response.status == 200
            payloads[form] = json.loads(response.read())
        bad = copy.deepcopy(bodies["columns"])
        bad["columns"]["kind"]["data"] = "@@"
        conn = http.client.HTTPConnection(*handle.address, timeout=10)
        conn.request("POST", "/v1/batch", body=json.dumps(bad))
        assert conn.getresponse().status == 400
    assert payloads["probes"]["v"] == payloads["columns"]["v"] == protocol.WIRE_SCHEMA_VERSION
    assert payloads["probes"]["estimates"] == payloads["columns"]["estimates"]
    assert payloads["probes"]["traces"] == payloads["columns"]["traces"]
    local = service.estimate_batch(probes)
    assert protocol.decode_estimates(payloads["columns"]["estimates"]).tobytes() == local.tobytes()


def test_failed_position_rebuilds_as_a_placeholder_probe():
    """Only the failed position is re-pointed at the placeholder name."""
    wire = protocol.probes_to_columns([EqualityProbe("R", "a", 1), EqualityProbe("R", "a", 2)])
    _poke(wire, "rel", 0, 42)
    columns, failed = protocol.columns_from_wire(wire)
    assert failed.tolist() == [True, False]
    groups = ProbeFrame.from_columns(columns).equality_groups
    assert [
        (g.relation, g.attribute, g.positions.tolist(), list(g.values)) for g in groups
    ] == [
        (protocol.UNDECODABLE_NAME, protocol.UNDECODABLE_NAME, [0], [1]),
        ("R", "a", [1], [2]),
    ]
