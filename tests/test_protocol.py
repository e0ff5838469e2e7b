import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beaconkx.codec import (
    BeaconPacket,
    DecodeError,
    PacketType,
    Position,
    decode_packet,
    encode_packet,
    encode_param_triple,
    int_to_magnitude,
    magnitude_to_int,
    quantize_position,
)
from beaconkx.dh import (
    DhError,
    DhKeyPair,
    DhParams,
    derive_symmetric_key,
    generate_dh_params,
    keypair_from_private,
)
from beaconkx.protocol import (
    ConfigError,
    DhMode,
    NeighborEntry,
    NodeConfig,
    NodeState,
    SecretMemo,
    make_node,
)

TEXTBOOK_PARAMS = DhParams(p=23, w=5)
KEY_FOR_SECRET_2 = derive_symmetric_key(2)


def textbook_node(node_id: int, private: int, pos=Position(0.0, 0.0),
                  mode=DhMode.GLOBAL_PARAMS, **config) -> NodeState:
    """Node over the 23/5 group with a forced secret exponent."""
    return NodeState(
        node_id=node_id,
        own_position=pos,
        config=NodeConfig(**config),
        dh_mode=mode,
        dh_params=TEXTBOOK_PARAMS,
        keypair=keypair_from_private(TEXTBOOK_PARAMS, private),
        rng=random.Random(node_id),
    )


@pytest.fixture
def secret_calls(monkeypatch):
    """The inputs of every exponentiation ``protocol`` asks for."""
    import beaconkx.protocol as protocol

    calls = []
    original = protocol.compute_shared_secret

    def recorded(params, own_private, peer_public, peer_private=None):
        calls.append((params.p, own_private, peer_public, peer_private))
        return original(params, own_private, peer_public, peer_private)

    monkeypatch.setattr(protocol, "compute_shared_secret", recorded)
    return calls


class TestNodeConfig:
    def test_defaults_valid(self):
        cfg = NodeConfig()
        assert cfg.beacon_interval == 1.0
        assert cfg.expiry_multiplier == 4.5

    @pytest.mark.parametrize("kwargs", [
        {"beacon_interval": 0.0},
        {"expiry_multiplier": 1.0},
        {"target_degree": 0},
        {"adapt_gain": -0.1},
        {"interval_min": 2.0},                      # above the base interval
        {"beacon_interval": 20.0},                  # above interval_max
        {"adapt_gain": math.nan},
        {"expiry_multiplier": math.inf},
        {"interval_max": math.inf},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            NodeConfig(**kwargs)

    def test_nan_interval_is_a_config_error_naming_its_key(self):
        with pytest.raises(ConfigError, match="node.beacon_interval"):
            NodeConfig(beacon_interval=math.nan)


class TestEffectiveInterval:
    def test_disabled_returns_base(self):
        node = textbook_node(1, 6, adaptive=False, beacon_interval=1.0)
        assert node.effective_beacon_interval() == 1.0

    def test_at_target_degree_returns_base(self):
        node = textbook_node(1, 6, adaptive=True, target_degree=8,
                             adapt_gain=0.5)
        for peer in range(2, 10):  # exactly 8 neighbors
            node.neighbors[peer] = NeighborEntry(Position(1.0, 1.0), 0.0)
        assert node.effective_beacon_interval() == pytest.approx(1.0)

    def test_double_target_degree(self):
        node = textbook_node(1, 6, adaptive=True, target_degree=8,
                             adapt_gain=0.5, interval_max=3.0)
        for peer in range(2, 18):  # 16 neighbors
            node.neighbors[peer] = NeighborEntry(Position(1.0, 1.0), 0.0)
        assert node.effective_beacon_interval() == pytest.approx(1.5)

    def test_sparse_node_beacons_no_less_often(self):
        node = textbook_node(1, 6, adaptive=True, target_degree=8,
                             adapt_gain=0.5)
        assert node.effective_beacon_interval() <= 1.0

    def test_clamped_to_bounds(self):
        node = textbook_node(1, 6, adaptive=True, target_degree=1,
                             adapt_gain=10.0, interval_min=0.5,
                             interval_max=2.0)
        assert node.effective_beacon_interval() == 0.5  # degree 0, floor
        for peer in range(2, 30):
            node.neighbors[peer] = NeighborEntry(Position(1.0, 1.0), 0.0)
        assert node.effective_beacon_interval() == 2.0  # ceiling

    def test_monotone_in_degree(self):
        node = textbook_node(1, 6, adaptive=True, target_degree=4,
                             adapt_gain=0.7, interval_min=0.2,
                             interval_max=5.0)
        previous = node.effective_beacon_interval()
        for peer in range(2, 20):
            node.neighbors[peer] = NeighborEntry(Position(1.0, 1.0), 0.0)
            current = node.effective_beacon_interval()
            assert current >= previous
            previous = current


class TestBeaconTimer:
    def test_emits_reference_beacon(self):
        node = textbook_node(1, 6)  # public value 8
        beacon = node.on_timer_beacon(0.0)
        assert encode_packet(beacon).hex(" ") == (
            "00 00 00 01 01 01 00 13 00 00 00 00 00 00 00 00 00 01 08")

    def test_fixed_interval_advances_exactly(self):
        node = textbook_node(1, 6, beacon_interval=1.0, adaptive=False)
        node.on_timer_beacon(0.0)
        assert node.next_beacon_at == 1.0
        node.on_timer_beacon(1.0)
        assert node.next_beacon_at == 2.0

    def test_beacon_carries_current_position(self):
        node = textbook_node(1, 6, pos=Position(12.5, -7.25))
        pkt = node.on_timer_beacon(0.0)
        assert pkt.src_pos == Position(12.5, -7.25)

    def test_timer_leaves_expiry_to_caller(self):
        # The caller runs expiry once per timer, before the beacon, so
        # that every drop is recorded; the timer keeps the table whole.
        node = textbook_node(1, 6)
        node.neighbors[9] = NeighborEntry(Position(1.0, 1.0), last_seen=0.0)
        node.on_timer_beacon(10.0)
        assert 9 in node.neighbors
        assert node.expire_neighbors(10.0) == [9]


class TestHandshake:
    def test_responder_establishes_and_acks(self):
        initiator = textbook_node(1, 6)     # alpha = 8
        responder = textbook_node(2, 15)    # beta = 19
        beacon = initiator.on_timer_beacon(0.0)

        ack = responder.on_receive_beacon(beacon, 0.1)
        entry = responder.neighbors[1]
        assert entry.key == KEY_FOR_SECRET_2
        assert entry.last_seen == 0.1
        assert ack is not None
        assert ack.ptype is PacketType.ACK
        assert magnitude_to_int(ack.public_value) == 19

    def test_initiator_completes_from_ack(self):
        initiator = textbook_node(1, 6)
        responder = textbook_node(2, 15)
        beacon = initiator.on_timer_beacon(0.0)
        ack = responder.on_receive_beacon(beacon, 0.1)

        initiator.on_receive_ack(ack, 0.2)
        entry = initiator.neighbors[2]
        assert entry.key == responder.neighbors[1].key == KEY_FOR_SECRET_2

    def test_repeat_beacon_refreshes_without_rekeying(self, secret_calls):
        memo = SecretMemo()
        initiator, responder = (
            make_node(node_id, Position(float(node_id), 0.0), NodeConfig(),
                      DhMode.GLOBAL_PARAMS, random.Random(node_id), TEXTBOOK_PARAMS,
                      memo)
            for node_id in (1, 2))
        beacon = initiator.on_timer_beacon(0.0)
        responder.on_receive_beacon(beacon, 0.1)
        key_before = responder.neighbors[1].key
        assert len(secret_calls) == 1

        ack = responder.on_receive_beacon(beacon, 1.1)
        assert ack is not None  # responder stays stateless, always answers
        assert responder.neighbors[1].last_seen == 1.1
        assert responder.neighbors[1].key is key_before
        assert len(secret_calls) == 1

    def test_zero_public_value_stores_entry_without_key(self):
        responder = textbook_node(2, 15)
        beacon = BeaconPacket(identifiant=1, version=1, ptype=PacketType.BEACON,
                              src_pos=Position(3.0, 4.0),
                              public_value=int_to_magnitude(0))
        ack = responder.on_receive_beacon(beacon, 0.5)
        entry = responder.neighbors[1]
        assert entry.key is None
        assert entry.position == Position(3.0, 4.0)
        assert ack is not None

    def test_ack_from_unknown_sender_creates_entry(self):
        initiator = textbook_node(1, 6)
        ack = BeaconPacket(identifiant=7, version=1, ptype=PacketType.ACK,
                           src_pos=Position(1.0, 0.0),
                           public_value=int_to_magnitude(19))
        initiator.on_receive_ack(ack, 0.3)
        assert initiator.neighbors[7].key is not None

    def test_duplicate_ack_idempotent(self):
        initiator = textbook_node(1, 6)
        ack = BeaconPacket(identifiant=7, version=1, ptype=PacketType.ACK,
                           src_pos=Position(1.0, 0.0),
                           public_value=int_to_magnitude(19))
        initiator.on_receive_ack(ack, 0.3)
        first = initiator.neighbors[7]
        snapshot = (first.key, first.position)
        initiator.on_receive_ack(ack, 0.4)
        second = initiator.neighbors[7]
        assert (second.key, second.position) == snapshot
        assert second.last_seen == 0.4

    def test_own_beacon_ignored(self):
        node = textbook_node(1, 6)
        beacon = node.on_timer_beacon(0.0)
        assert node.on_receive_beacon(beacon, 0.1) is None
        assert node.neighbors == {}


class TestPerNodeParams:
    def test_responder_answers_in_initiators_group(self):
        rng_a, rng_b = random.Random(1), random.Random(5)
        initiator = make_node(1, Position(0.0, 0.0), NodeConfig(),
                              DhMode.PER_NODE_PARAMS, rng=rng_a,
                              params=generate_dh_params(64, rng_a))
        responder = make_node(2, Position(10.0, 0.0), NodeConfig(),
                              DhMode.PER_NODE_PARAMS, rng=rng_b,
                              params=generate_dh_params(64, rng_b))
        assert initiator.dh_params != responder.dh_params

        beacon = initiator.on_timer_beacon(0.0)
        assert beacon.version == 2
        ack = responder.on_receive_beacon(beacon, 0.1)
        assert ack is not None and ack.version == 1
        initiator.on_receive_ack(ack, 0.2)

        assert initiator.neighbors[2].key == responder.neighbors[1].key
        assert initiator.neighbors[2].key is not None

    def test_beacon_round_trips_through_wire(self):
        rng = random.Random(1)
        node = make_node(1, Position(0.0, 0.0), NodeConfig(),
                         DhMode.PER_NODE_PARAMS, rng=rng,
                         params=generate_dh_params(64, rng))
        beacon = node.on_timer_beacon(0.0)
        assert decode_packet(encode_packet(beacon)) == beacon

    def test_rekey_is_stable_across_repeat_exchanges(self):
        rng_a, rng_b = random.Random(1), random.Random(2)
        initiator = make_node(1, Position(0.0, 0.0), NodeConfig(),
                              DhMode.PER_NODE_PARAMS, rng=rng_a,
                              params=generate_dh_params(64, rng_a))
        responder = make_node(2, Position(10.0, 0.0), NodeConfig(),
                              DhMode.PER_NODE_PARAMS, rng=rng_b,
                              params=generate_dh_params(64, rng_b))
        keys = set()
        for t in (0.0, 1.0, 2.0):
            beacon = initiator.on_timer_beacon(t)
            ack = responder.on_receive_beacon(beacon, t + 0.1)
            initiator.on_receive_ack(ack, t + 0.2)
            keys.add(responder.neighbors[1].key)
            keys.add(initiator.neighbors[2].key)
        assert len(keys) == 1  # cached responder pair keeps the key stable


    def test_beacon_in_own_group_keys_with_responder_exponent(self):
        # Node 3's first responder exponent in the 23/5 group is 9, not
        # its own 6, so the two exchanges give different secrets.
        node = textbook_node(3, 6, mode=DhMode.PER_NODE_PARAMS)
        ack = BeaconPacket(identifiant=7, version=1, ptype=PacketType.ACK,
                           src_pos=Position(1.0, 0.0),
                           public_value=int_to_magnitude(19))
        node.on_receive_ack(ack, 0.1)
        assert node.neighbors[7].key == derive_symmetric_key(pow(19, 6, 23))

        beacon = BeaconPacket(identifiant=7, version=2, ptype=PacketType.BEACON,
                              src_pos=Position(1.0, 0.0),
                              public_value=encode_param_triple(23, 5, 19))
        reply = node.on_receive_beacon(beacon, 0.2)
        responder_private = node._responder_keys[7][1].private_exponent
        assert responder_private != 6
        assert magnitude_to_int(reply.public_value) == pow(5, responder_private, 23)
        assert node.neighbors[7].key == derive_symmetric_key(
            pow(19, responder_private, 23))

    @pytest.mark.parametrize("p, w", [(23, 22), (2**100, 2), (3, 2)])
    def test_beacon_in_a_group_without_key_pairs_gets_no_ack(self, p, w):
        # No responder pair can be drawn where every power of w is 1 or
        # p-1, or 0, nor where [2, p-2] is empty: the beacon refreshes
        # the entry, leaves it without a key and gets no answer, and the
        # group is not kept.
        node = textbook_node(3, 6)
        beacon = BeaconPacket(identifiant=7, version=2, ptype=PacketType.BEACON,
                              src_pos=Position(1.0, 0.0),
                              public_value=encode_param_triple(p, w, 5))
        assert node.on_receive_beacon(beacon, 0.2) is None
        assert node.neighbors[7].key is None
        assert node._responder_keys == {}
        with pytest.raises(DhError):
            node.memo.group(p, w)


def fleet_node(node_id: int, params: DhParams, keypair: DhKeyPair, memo: SecretMemo,
               mode=DhMode.GLOBAL_PARAMS) -> NodeState:
    """Node holding ``keypair`` in ``params`` and sharing ``memo``."""
    return NodeState(node_id=node_id, own_position=Position(float(node_id), 0.0),
                     config=NodeConfig(), dh_mode=mode, dh_params=params,
                     keypair=keypair, rng=random.Random(node_id), memo=memo)


def drawn_node(node_id: int, params: DhParams, seed: int, memo: SecretMemo,
               mode=DhMode.GLOBAL_PARAMS) -> NodeState:
    """Node holding a key pair that ``memo`` draws from ``random.Random(seed)``."""
    return fleet_node(node_id, params, memo.keypair(params, random.Random(seed)),
                      memo, mode)


class TestFleetMemo:
    def test_one_secret_call_serves_both_ends(self, secret_calls):
        memo = SecretMemo()
        a = drawn_node(1, TEXTBOOK_PARAMS, 1, memo)
        b = drawn_node(2, TEXTBOOK_PARAMS, 2, memo)
        x, a_public = a.keypair.private_exponent, a.keypair.public_value
        y = b.keypair.private_exponent
        for t in (0.0, 1.0):
            ack = b.on_receive_beacon(a.on_timer_beacon(t), t + 0.1)
            a.on_receive_ack(ack, t + 0.2)
        assert secret_calls == [(23, y, a_public, x)]
        assert a.neighbors[2].key == b.neighbors[1].key == derive_symmetric_key(
            pow(5, x * y, 23))

    @pytest.mark.parametrize("params, a_private, b_private", [
        (DhParams(23, 22), 5, 4),   # w of order 2: every public value is 22 or 1
        (DhParams(23, 2), 11, 3),   # 2^11 = 1, while node 2's 8 is in range
    ])
    def test_out_of_range_public_value_is_checked_on_every_arrival(
            self, secret_calls, params, a_private, b_private):
        # The memo draws only values in [2, p-2], so an out-of-range one is
        # a hand-built pair's, and it is never looked up by its exponent.
        memo = SecretMemo()
        a = fleet_node(1, params, keypair_from_private(params, a_private), memo)
        b = fleet_node(2, params, keypair_from_private(params, b_private), memo)
        a_public = a.keypair.public_value
        assert not 2 <= a_public <= params.p - 2
        for t in (0.0, 1.0, 2.0):
            ack = a.on_receive_beacon(b.on_timer_beacon(t), t + 0.1)
            b.on_receive_ack(ack, t + 0.2)
            assert b.neighbors[1].key is None
        assert secret_calls.count((23, b_private, a_public, None)) == 3

    def test_foreign_group_beacon_in_global_mode_agrees_on_a_key(self, secret_calls):
        # A global-mode node answers a beacon in another group (same p,
        # another w) with a responder pair drawn in that group, not with
        # its own pair, so both ends derive one key.
        memo = SecretMemo()
        a = drawn_node(1, TEXTBOOK_PARAMS, 1, memo)
        b = drawn_node(2, DhParams(23, 7), 2, memo, mode=DhMode.PER_NODE_PARAMS)
        y, b_public = b.keypair.private_exponent, b.keypair.public_value
        beacon = b.on_timer_beacon(0.0)
        assert beacon.version == 2
        ack = a.on_receive_beacon(beacon, 0.1)
        responder = a._responder_keys[2][1]
        assert responder != a.keypair
        assert magnitude_to_int(ack.public_value) == responder.public_value
        b.on_receive_ack(ack, 0.2)
        key = derive_symmetric_key(pow(7, y * responder.private_exponent, 23))
        assert a.neighbors[2].key == b.neighbors[1].key == key
        assert secret_calls == [(23, responder.private_exponent, b_public, y)]

    def test_same_p_another_w_is_another_exchange(self, secret_calls):
        # Seeds 1 and 2 draw exponents 6 and 3 in both 23/5 and 23/7, and
        # seed 6 draws 20 in 23/7, whose public value is 23/5's 5^6 = 8.
        # Keyed by p alone, the exponents or the values would collide.
        memo = SecretMemo()
        five, seven = TEXTBOOK_PARAMS, DhParams(23, 7)
        a5, b5, a7, b7, c7 = (memo.keypair(params, random.Random(seed)) for
                              params, seed in ((five, 1), (five, 2), (seven, 1),
                                               (seven, 2), (seven, 6)))
        assert (a5.private_exponent, b5.private_exponent) == (
            a7.private_exponent, b7.private_exponent) == (6, 3)
        assert a5.public_value == c7.public_value == 8
        assert memo.key(five, a5, b5.public_value) == derive_symmetric_key(
            pow(5, 18, 23))
        assert memo.key(five, b5, 8) == memo.key(five, a5, b5.public_value)
        assert memo.key(seven, a7, b7.public_value) == derive_symmetric_key(
            pow(7, 18, 23))
        assert memo.key(seven, b7, 8) == derive_symmetric_key(pow(8, 3, 23))
        assert pow(5, 18, 23) != pow(7, 18, 23) != pow(8, 3, 23)
        assert secret_calls == [(23, 6, 10, 3), (23, 6, 21, 3), (23, 3, 8, 20)]

    def test_value_the_memo_did_not_draw_is_computed_on_every_arrival(
            self, secret_calls):
        # 9 is not 5^6, and the memo did not draw it: node 2 computes
        # 9^y on every arrival, and nothing is kept for it.
        memo = SecretMemo()
        a = fleet_node(1, TEXTBOOK_PARAMS, DhKeyPair(6, 9), memo)
        b = drawn_node(2, TEXTBOOK_PARAMS, 2, memo)
        y, b_public = b.keypair.private_exponent, b.keypair.public_value
        for t in (0.0, 1.0):
            ack = a.on_receive_beacon(b.on_timer_beacon(t), t + 0.1)
            b.on_receive_ack(ack, t + 0.2)
        assert secret_calls == [(23, 6, b_public, y), (23, y, 9, None),
                                (23, y, 9, None)]
        assert a.neighbors[2].key == derive_symmetric_key(pow(b_public, 6, 23))
        assert b.neighbors[1].key == derive_symmetric_key(pow(9, y, 23))

    def test_composite_modulus_stays_on_pow(self, secret_calls):
        # 2 has order 6 mod 21, so the table's w^(x*y mod 20) is not pow's
        # value: the group fails its check and its secrets use pow.
        params = DhParams(21, 2)
        memo = SecretMemo()
        a = drawn_node(1, params, 1, memo)
        b = drawn_node(2, params, 3, memo)
        x, a_public = a.keypair.private_exponent, a.keypair.public_value
        y, b_public = b.keypair.private_exponent, b.keypair.public_value
        ack = b.on_receive_beacon(a.on_timer_beacon(0.0), 0.1)
        a.on_receive_ack(ack, 0.2)
        key = derive_symmetric_key(pow(b_public, x, 21))
        assert derive_symmetric_key(pow(2, x * y % 20, 21)) != key
        assert a.neighbors[2].key == b.neighbors[1].key == key
        assert vars(params)["_comb"]
        assert vars(params)["_reducible"] is False
        assert secret_calls == [(21, y, a_public, x)]


class TestKeptPackets:
    def test_new_position_is_in_the_next_beacon_and_ack(self):
        node = textbook_node(1, 6, pos=Position(10.0, 20.0))
        peer = textbook_node(2, 15)
        beacon = peer.on_timer_beacon(0.0)
        node.on_timer_beacon(0.0)
        node.on_receive_beacon(beacon, 0.1)
        moved = Position(100.1, 200.2)
        node.own_position = moved
        assert node.on_timer_beacon(1.0).src_pos == quantize_position(moved)
        assert node.on_receive_beacon(beacon, 1.1).src_pos == quantize_position(moved)

    def test_each_group_is_answered_with_the_pair_held_for_it(self):
        memo = SecretMemo()
        groups = [generate_dh_params(64, random.Random(seed)) for seed in (1, 2, 3)]
        responder, a, b = (
            make_node(node_id, Position(float(node_id), 0.0), NodeConfig(),
                      DhMode.PER_NODE_PARAMS, random.Random(node_id), params, memo)
            for node_id, params in zip((1, 2, 3), groups))
        for t, initiator in enumerate((a, b, a, b)):
            ack = responder.on_receive_beacon(initiator.on_timer_beacon(t), t + 0.1)
            held = responder._responder_keys[initiator.node_id][1]
            assert magnitude_to_int(ack.public_value) == held.public_value
            initiator.on_receive_ack(ack, t + 0.2)
            assert initiator.neighbors[1].key == responder.neighbors[initiator.node_id].key

    def test_rejected_payload_is_rejected_on_every_arrival(self):
        # A leading zero octet makes the magnitude non-canonical.
        node = textbook_node(2, 15)
        bad = BeaconPacket(identifiant=1, version=1, ptype=PacketType.BEACON,
                           src_pos=Position(1.0, 0.0), public_value=b"\x00\x08")
        with pytest.raises(DecodeError) as first:
            node.memo.read(bad.version, bad.ptype, bad.public_value)
        with pytest.raises(DecodeError, match=f"^{first.value}$"):
            node.memo.read(bad.version, bad.ptype, bad.public_value)
        for t in (0.1, 1.1):
            assert node.on_receive_beacon(bad, t) is None
            assert node.neighbors[1].key is None
        good = textbook_node(1, 6).on_timer_beacon(2.0)
        assert node.on_receive_beacon(good, 2.1) is not None
        assert node.neighbors[1].key == KEY_FOR_SECRET_2


class TestExpiry:
    def test_silent_entry_removed(self):
        node = textbook_node(1, 6, beacon_interval=1.0, expiry_multiplier=4.5)
        node.neighbors[2] = NeighborEntry(Position(1.0, 1.0), last_seen=0.0)
        assert node.expire_neighbors(10.0) == [2]
        assert node.neighbors == {}

    def test_recent_entry_retained(self):
        node = textbook_node(1, 6, beacon_interval=1.0, expiry_multiplier=4.5)
        node.neighbors[2] = NeighborEntry(Position(1.0, 1.0), last_seen=8.0)
        assert node.expire_neighbors(10.0) == []
        assert 2 in node.neighbors

    def test_empty_table(self):
        node = textbook_node(1, 6)
        assert node.expire_neighbors(100.0) == []

    def test_boundary_is_strict(self):
        node = textbook_node(1, 6, beacon_interval=1.0, expiry_multiplier=4.5)
        node.neighbors[2] = NeighborEntry(Position(1.0, 1.0), last_seen=0.0)
        assert node.expire_neighbors(4.5) == []
        assert node.expire_neighbors(4.5000001) == [2]


class TestGreedyNextHop:
    def add(self, node, peer, x, y, keyed=True):
        entry = NeighborEntry(Position(x, y), last_seen=0.0)
        if keyed:
            entry.key = KEY_FOR_SECRET_2
        node.neighbors[peer] = entry

    def test_closest_neighbor_wins(self):
        node = textbook_node(1, 6, pos=Position(0.0, 0.0))
        self.add(node, 2, 5.0, 0.0)
        self.add(node, 3, 3.0, 4.0)
        assert node.greedy_next_hop(Position(10.0, 0.0)) == 2

    def test_empty_table_returns_none(self):
        node = textbook_node(1, 6)
        assert node.greedy_next_hop(Position(10.0, 0.0)) is None

    def test_no_progress_is_local_maximum(self):
        node = textbook_node(1, 6, pos=Position(0.0, 0.0))
        self.add(node, 2, -5.0, 0.0)
        assert node.greedy_next_hop(Position(10.0, 0.0)) is None

    def test_tie_breaks_to_smallest_id(self):
        node = textbook_node(1, 6, pos=Position(0.0, 0.0))
        self.add(node, 5, 5.0, 0.0)
        self.add(node, 3, 5.0, 0.0)
        assert node.greedy_next_hop(Position(10.0, 0.0)) == 3

    def test_keyed_only_filters_unkeyed_entries(self):
        node = textbook_node(1, 6, pos=Position(0.0, 0.0))
        self.add(node, 2, 9.0, 0.0, keyed=False)
        self.add(node, 3, 5.0, 0.0)
        assert node.greedy_next_hop(Position(10.0, 0.0)) == 2
        assert node.greedy_next_hop(Position(10.0, 0.0), keyed_only=True) == 3

    @given(st.lists(
        st.tuples(st.integers(2, 40), st.integers(-20, 20), st.integers(-20, 20)),
        max_size=12),
        st.integers(-20, 20), st.integers(-20, 20))
    @settings(max_examples=300)
    def test_matches_brute_force_oracle(self, raw_neighbors, dx, dy):
        node = textbook_node(1, 6, pos=Position(0.0, 0.0))
        table = {}
        for peer, x, y in raw_neighbors:
            table[peer] = (float(x), float(y))
        for peer, (x, y) in table.items():
            self.add(node, peer, x, y)
        dest = Position(float(dx), float(dy))

        # Independent restatement: argmin by (distance, id) with strict progress.
        own = math.hypot(dest.x, dest.y)
        ranked = sorted(
            (math.hypot(x - dest.x, y - dest.y), peer)
            for peer, (x, y) in table.items())
        expected = ranked[0][1] if ranked and ranked[0][0] < own else None
        assert node.greedy_next_hop(dest) == expected
