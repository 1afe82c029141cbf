"""Wire-schema codecs: round-trip fidelity, rejection rules, framing."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import protocol
from repro.net.protocol import (
    FrameDecoder,
    WireCodecError,
    WireVersionError,
    decode_estimates,
    decode_frame,
    decode_value,
    encode_estimates,
    encode_frame,
    encode_value,
    probe_from_wire,
    probe_to_wire,
    probes_from_wire,
    probes_to_wire,
    trace_from_wire,
    trace_to_wire,
)
from repro.serve import EqualityProbe, JoinProbe, ProbeTrace, RangeProbe

# ---------------------------------------------------------------------------
# Value strategies: every domain shape the service accepts — numeric,
# non-numeric (strings/bytes), unorderable-mix material (tuples, bools),
# and None bounds.
# ---------------------------------------------------------------------------

finite_floats = st.floats(allow_nan=False, allow_infinity=False)
scalar_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**30), max_value=10**30),
    finite_floats,
    st.text(max_size=40),
    st.binary(max_size=24),
)
wire_values = st.one_of(
    scalar_values,
    st.tuples(scalar_values, scalar_values),
    st.tuples(scalar_values, st.tuples(scalar_values, scalar_values)),
)

names = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=12
)

equality_probes = st.builds(EqualityProbe, relation=names, attribute=names, value=wire_values)
range_probes = st.builds(
    RangeProbe,
    relation=names,
    attribute=names,
    low=st.one_of(st.none(), wire_values),
    high=st.one_of(st.none(), wire_values),
    include_low=st.booleans(),
    include_high=st.booleans(),
)
join_probes = st.builds(
    JoinProbe,
    left_relation=names,
    left_attribute=names,
    right_relation=names,
    right_attribute=names,
)
any_probe = st.one_of(equality_probes, range_probes, join_probes)


class TestValueCodec:
    @given(wire_values)
    @settings(max_examples=300)
    def test_round_trip_identity(self, value):
        decoded = decode_value(encode_value(value))
        assert decoded == value
        assert type(decoded) is type(value)

    @given(finite_floats)
    def test_floats_round_trip_bit_exactly(self, value):
        decoded = decode_value(encode_value(value))
        assert math.copysign(1.0, decoded) == math.copysign(1.0, value)
        assert decoded.hex() == value.hex()

    def test_int_float_distinction_survives(self):
        assert decode_value(encode_value(1)) == 1 and isinstance(
            decode_value(encode_value(1)), int
        )
        assert isinstance(decode_value(encode_value(1.0)), float)
        assert isinstance(decode_value(encode_value(True)), bool)

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf")]
    )
    def test_non_finite_rejected_at_encode(self, bad):
        with pytest.raises(WireCodecError, match="non-finite"):
            encode_value(bad)
        with pytest.raises(WireCodecError):
            encode_value((1, bad))

    def test_unsupported_type_rejected(self):
        with pytest.raises(WireCodecError, match="no wire encoding"):
            encode_value(object())

    def test_json_representable(self):
        for value in [None, True, 7, 2.5, "x", b"\x00\xff", (1, ("a", None))]:
            json.dumps(encode_value(value))

    def test_malformed_wire_rejected(self):
        for junk in [{"t": "wat"}, {"t": "int", "v": "zz"}, 7, ["x"]]:
            with pytest.raises(WireCodecError):
                decode_value(junk)


class TestProbeCodec:
    @given(any_probe)
    @settings(max_examples=300)
    def test_round_trip_equality(self, probe):
        wire = probe_to_wire(probe)
        json.dumps(wire)  # the wire form must be plain JSON
        assert probe_from_wire(wire) == probe

    @given(st.lists(any_probe, max_size=8))
    def test_batch_round_trip(self, probes):
        assert probes_from_wire(probes_to_wire(probes)) == probes

    def test_nan_probe_value_rejected_at_encode(self):
        with pytest.raises(WireCodecError):
            probe_to_wire(EqualityProbe("R", "a", float("nan")))
        with pytest.raises(WireCodecError):
            probe_to_wire(RangeProbe("R", "a", low=float("inf")))

    def test_none_bounds_round_trip(self):
        probe = RangeProbe("R", "a", low=None, high=None)
        assert probe_from_wire(probe_to_wire(probe)) == probe

    def test_unknown_kind_rejected(self):
        with pytest.raises(WireCodecError, match="unknown probe kind"):
            probe_from_wire({"kind": "mystery"})

    def test_non_object_rejected(self):
        with pytest.raises(WireCodecError):
            probe_from_wire("equality")
        with pytest.raises(WireCodecError):
            probes_from_wire({"kind": "equality"})


class TestTraceCodec:
    @given(
        kind=st.sampled_from(["equality", "range", "join", "membership", "not_equal"]),
        relation=names,
        attribute=st.one_of(st.none(), names),
        reason=names,
        value=st.one_of(
            finite_floats, st.just(float("nan")), st.just(float("inf"))
        ),
        degraded=st.booleans(),
        position=st.one_of(st.none(), st.integers(min_value=0, max_value=10**6)),
    )
    def test_round_trip(self, kind, relation, attribute, reason, value, degraded, position):
        trace = ProbeTrace(
            kind=kind,
            relation=relation,
            attribute=attribute,
            reason=reason,
            value=value,
            degraded=degraded,
            position=position,
        )
        decoded = trace_from_wire(trace_to_wire(trace))
        # NaN != NaN, so compare served values through their hex form.
        assert decoded.value.hex() == trace.value.hex() or (
            math.isnan(decoded.value) and math.isnan(trace.value)
        )
        assert decoded == ProbeTrace(
            kind=kind,
            relation=relation,
            attribute=attribute,
            reason=reason,
            value=decoded.value,
            degraded=degraded,
            position=position,
        )


class TestEstimatesCodec:
    def test_bit_identity_including_nan(self):
        vector = np.array(
            [0.0, -0.0, 1.5, float("nan"), float("inf"), -1e308], dtype=np.float64
        )
        decoded = decode_estimates(encode_estimates(vector))
        assert decoded.dtype == np.float64
        assert decoded.tobytes() == vector.tobytes()

    def test_empty_vector(self):
        decoded = decode_estimates(encode_estimates(np.zeros(0)))
        assert decoded.size == 0

    def test_length_mismatch_rejected(self):
        wire = encode_estimates(np.ones(3))
        wire["n"] = 4
        with pytest.raises(WireCodecError, match="mismatch"):
            decode_estimates(wire)


class TestFraming:
    def test_frame_round_trip(self):
        body = protocol.message("hello", token="t")
        frames = FrameDecoder().feed(encode_frame(body))
        assert frames == [body]

    def test_incremental_reassembly_every_split(self):
        frames_bytes = encode_frame(protocol.message("a")) + encode_frame(
            protocol.message("b", data="x" * 100)
        )
        for split in range(len(frames_bytes) + 1):
            decoder = FrameDecoder()
            got = decoder.feed(frames_bytes[:split])
            got += decoder.feed(frames_bytes[split:])
            assert [frame["op"] for frame in got] == ["a", "b"]
            assert decoder.pending_bytes == 0

    def test_oversized_length_prefix_rejected(self):
        decoder = FrameDecoder()
        with pytest.raises(WireCodecError, match="not speaking this protocol"):
            decoder.feed(b"\xff\xff\xff\xff")

    def test_nan_cannot_sneak_into_a_frame(self):
        with pytest.raises(ValueError):
            encode_frame({"x": float("nan")})

    def test_decode_frame_rejects_non_objects(self):
        with pytest.raises(WireCodecError):
            decode_frame(b"[1,2]")
        with pytest.raises(WireCodecError):
            decode_frame(b"\xff\xfe")

    def test_version_check(self):
        """One version: the retired 1 and 2, a later one, none, and true are refused."""
        protocol.check_version(protocol.message("ping"))
        for refused in ({"v": 1}, {"v": 2}, {"v": 99}, {}, {"v": True}):
            with pytest.raises(WireVersionError):
                protocol.check_version(refused)
