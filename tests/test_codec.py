import dataclasses
import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beaconkx.codec import (
    HEADER_LEN,
    MAX_PUBLIC_VALUE_LEN,
    BeaconPacket,
    DecodeError,
    EncodeError,
    PacketType,
    Position,
    decode_packet,
    decode_param_triple,
    encode_packet,
    encode_param_triple,
    int_to_magnitude,
    magnitude_to_int,
    quantize_position,
    read_payload,
)

GOLDEN_BEACON = bytes.fromhex("00000001010100130000000000000000000108")
GOLDEN_PACKET = BeaconPacket(
    identifiant=1, version=1, ptype=PacketType.BEACON,
    src_pos=Position(0.0, 0.0), public_value=b"\x08")


def make_packet(**overrides) -> BeaconPacket:
    fields = dict(identifiant=1, version=1, ptype=PacketType.BEACON,
                  src_pos=Position(0.0, 0.0), public_value=b"\x08")
    fields.update(overrides)
    return BeaconPacket(**fields)


class TestGoldenVectors:
    def test_reference_beacon_bytes(self):
        encoded = encode_packet(GOLDEN_PACKET)
        assert encoded == GOLDEN_BEACON
        assert len(encoded) == 19
        assert encoded.hex(" ") == (
            "00 00 00 01 01 01 00 13 00 00 00 00 00 00 00 00 00 01 08")

    def test_reference_beacon_decodes(self):
        pkt = decode_packet(GOLDEN_BEACON)
        assert pkt == GOLDEN_PACKET
        assert pkt.packet_len == 19

    def test_packet_len_is_kept_outside_the_fields(self):
        pkt = make_packet(public_value=b"\x05\x06\x07")
        twin = make_packet(public_value=b"\x05\x06\x07")
        before = repr(pkt)
        assert "packet_len" not in vars(pkt)
        assert pkt.packet_len == HEADER_LEN + 3
        assert vars(pkt)["packet_len"] == HEADER_LEN + 3
        assert pkt == twin and twin == pkt
        assert hash(pkt) == hash(twin)
        assert repr(pkt) == repr(twin) == before
        assert dataclasses.asdict(pkt) == {
            "identifiant": 1, "version": 1, "ptype": PacketType.BEACON,
            "src_pos": Position(0.0, 0.0), "public_value": b"\x05\x06\x07"}

    def test_position_field_encodings(self):
        encoded = encode_packet(make_packet(src_pos=Position(1.5, -2.0)))
        assert encoded[8:12] == bytes.fromhex("3fc00000")
        assert encoded[12:16] == bytes.fromhex("c0000000")

    def test_layout_is_big_endian(self):
        pkt = make_packet(identifiant=0x01020304, public_value=b"\x05\x06")
        encoded = encode_packet(pkt)
        assert encoded[0:4] == b"\x01\x02\x03\x04"
        assert encoded[6:8] == struct.pack(">H", HEADER_LEN + 2)
        assert encoded[16:18] == b"\x00\x02"
        assert encoded[18:] == b"\x05\x06"


class TestEncodeErrors:
    def test_non_finite_position(self):
        for bad in (math.nan, math.inf, -math.inf, 3.4028235677973366e38, -1e39):
            with pytest.raises(EncodeError):
                encode_packet(make_packet(src_pos=Position(bad, 0.0)))

    def test_identifiant_out_of_range(self):
        with pytest.raises(EncodeError):
            encode_packet(make_packet(identifiant=2**32))
        with pytest.raises(EncodeError):
            encode_packet(make_packet(identifiant=-1))

    def test_empty_public_value(self):
        with pytest.raises(EncodeError):
            encode_packet(make_packet(public_value=b""))

    def test_leading_zero_public_value(self):
        with pytest.raises(EncodeError):
            encode_packet(make_packet(public_value=b"\x00\x08"))

    def test_oversized_public_value(self):
        with pytest.raises(EncodeError):
            encode_packet(make_packet(
                public_value=b"\x01" + b"\xff" * MAX_PUBLIC_VALUE_LEN))

    def test_unknown_version(self):
        with pytest.raises(EncodeError):
            encode_packet(make_packet(version=3))

    def test_triple_payload_required_on_v2_beacon(self):
        with pytest.raises(EncodeError):
            encode_packet(make_packet(version=2, public_value=b"\x08"))


class TestDecodeErrors:
    def test_empty_buffer(self):
        with pytest.raises(DecodeError, match="header octets"):
            decode_packet(b"")

    def test_short_header(self):
        with pytest.raises(DecodeError, match="header octets"):
            decode_packet(GOLDEN_BEACON[:17])

    def test_unknown_type(self):
        mutated = bytearray(GOLDEN_BEACON)
        mutated[5] = 0x07
        with pytest.raises(DecodeError, match="unknown packet type"):
            decode_packet(bytes(mutated))

    def test_unknown_version(self):
        mutated = bytearray(GOLDEN_BEACON)
        mutated[4] = 0x03
        with pytest.raises(DecodeError, match="unsupported version"):
            decode_packet(bytes(mutated))

    def test_length_mismatch(self):
        with pytest.raises(DecodeError, match="packet_len says"):
            decode_packet(GOLDEN_BEACON + b"\x00")
        mutated = bytearray(GOLDEN_BEACON)
        mutated[7] = 0x14  # claims one octet more than present
        with pytest.raises(DecodeError, match="packet_len says"):
            decode_packet(bytes(mutated))

    def test_pv_len_inconsistent(self):
        mutated = bytearray(GOLDEN_BEACON)
        mutated[17] = 0x02  # pv_len=2 but only one payload octet remains
        with pytest.raises(DecodeError, match="pv_len says"):
            decode_packet(bytes(mutated))

    def test_non_canonical_magnitude(self):
        raw = struct.pack(
            ">IBBHffH", 1, 1, 1, HEADER_LEN + 2, 0.0, 0.0, 2) + b"\x00\x08"
        with pytest.raises(DecodeError, match="leading zero octet"):
            decode_packet(raw)

    def test_non_finite_position_rejected(self):
        raw = struct.pack(
            ">IBBH", 1, 1, 1, 19) + b"\x7f\xc0\x00\x00" + struct.pack(
            ">fH", 0.0, 1) + b"\x08"
        with pytest.raises(DecodeError, match="non-finite position"):
            decode_packet(raw)

    def test_malformed_triple_on_v2_beacon(self):
        payload = b"\x00\x01\x17\x00\x01\x05"  # only two of three magnitudes
        raw = struct.pack(">IBBHffH", 1, 2, 1, HEADER_LEN + len(payload),
                          0.0, 0.0, len(payload)) + payload
        with pytest.raises(DecodeError, match="parameter triple truncated"):
            decode_packet(raw)


class TestMagnitudes:
    @pytest.mark.parametrize("value, octets", [
        (0, b"\x00"),
        (8, b"\x08"),
        (255, b"\xff"),
        (256, b"\x01\x00"),
        (0x0102030405, b"\x01\x02\x03\x04\x05"),
    ])
    def test_round_trip(self, value, octets):
        assert int_to_magnitude(value) == octets
        assert magnitude_to_int(octets) == value

    def test_rejects_leading_zero(self):
        with pytest.raises(DecodeError, match="leading zero octet"):
            magnitude_to_int(b"\x00\x01")

    def test_rejects_empty(self):
        with pytest.raises(DecodeError, match="at least one octet"):
            magnitude_to_int(b"")

    def test_triple_round_trip(self):
        payload = encode_param_triple(23, 5, 8)
        assert payload == b"\x00\x01\x17\x00\x01\x05\x00\x01\x08"
        assert decode_param_triple(payload) == (23, 5, 8)

    def test_triple_rejects_trailing_octets(self):
        with pytest.raises(DecodeError, match="trailing octets"):
            decode_param_triple(encode_param_triple(23, 5, 8) + b"\x00")


class TestReadPayload:
    def test_version_1_beacon_is_one_value(self):
        assert read_payload(1, PacketType.BEACON, b"\x08") == (8,)

    def test_version_2_beacon_is_a_triple(self):
        assert read_payload(2, PacketType.BEACON, encode_param_triple(23, 5, 8)) == (23, 5, 8)

    def test_version_2_ack_is_one_value(self):
        # An ACK answers inside the initiator's group, so it never carries one.
        assert read_payload(2, PacketType.ACK, b"\x01\x17") == (0x117,)

    @pytest.mark.parametrize("version, ptype, payload, reason", [
        (2, PacketType.BEACON, encode_param_triple(23, 5, 8)[:-1], "triple truncated"),
        (2, PacketType.BEACON, encode_param_triple(23, 5, 8) + b"\x00", "trailing octets"),
        (2, PacketType.BEACON, b"\x08", "triple truncated"),
        (1, PacketType.BEACON, b"", "at least one octet"),
        (2, PacketType.ACK, b"\x00\x08", "leading zero octet"),
        (1, PacketType.ACK, b"\x01" * (MAX_PUBLIC_VALUE_LEN + 1), "longer than"),
    ])
    def test_malformed_payload_names_its_fault(self, version, ptype, payload, reason):
        with pytest.raises(DecodeError, match=reason):
            read_payload(version, ptype, payload)


singles = st.floats(width=32, allow_nan=False, allow_infinity=False)
magnitudes = st.integers(0, 2**256).map(int_to_magnitude)


@st.composite
def valid_packets(draw):
    version = draw(st.sampled_from([1, 2]))
    ptype = draw(st.sampled_from([PacketType.BEACON, PacketType.ACK]))
    if version == 2 and ptype is PacketType.BEACON:
        payload = encode_param_triple(
            draw(st.integers(0, 2**256)), draw(st.integers(0, 2**256)),
            draw(st.integers(0, 2**256)))
    else:
        payload = draw(magnitudes)
    return BeaconPacket(
        identifiant=draw(st.integers(0, 2**32 - 1)),
        version=version,
        ptype=ptype,
        src_pos=Position(draw(singles), draw(singles)),
        public_value=payload,
    )


class TestProperties:
    @given(valid_packets())
    @settings(max_examples=300)
    def test_round_trip(self, pkt):
        assert decode_packet(encode_packet(pkt)) == pkt

    @given(valid_packets())
    @settings(max_examples=300)
    def test_re_encode(self, pkt):
        raw = encode_packet(pkt)
        assert encode_packet(decode_packet(raw)) == raw

    @given(valid_packets())
    @settings(max_examples=200)
    def test_encoded_length_matches_packet_len(self, pkt):
        assert len(encode_packet(pkt)) == pkt.packet_len

    @given(st.binary(max_size=80))
    @settings(max_examples=500)
    def test_decode_total_over_noise(self, buf):
        try:
            pkt = decode_packet(buf)
        except DecodeError:
            return
        assert encode_packet(pkt) == buf

    def test_decode_total_over_mutated_valid_packets(self):
        rng = random.Random(99)
        raw = bytearray(encode_packet(GOLDEN_PACKET))
        for _ in range(5000):
            mutated = bytearray(raw)
            for _ in range(rng.randrange(1, 4)):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            try:
                pkt = decode_packet(bytes(mutated))
            except DecodeError:
                continue
            assert encode_packet(pkt) == bytes(mutated)


class TestQuantize:
    def test_quantize_rounds_to_single_precision(self):
        pos = quantize_position(Position(0.1, 123.456))
        assert pos.x == struct.unpack(">f", struct.pack(">f", 0.1))[0]
        assert pos.y == struct.unpack(">f", struct.pack(">f", 123.456))[0]
        assert pos.x != 0.1  # 0.1 is not single-precision representable

    def test_exact_values_unchanged(self):
        assert quantize_position(Position(1.5, -2.0)) == Position(1.5, -2.0)

    def test_quantized_positions_round_trip_through_wire(self):
        pkt = make_packet(src_pos=quantize_position(Position(0.1, 7.3)))
        assert decode_packet(encode_packet(pkt)) == pkt
