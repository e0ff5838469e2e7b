import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beaconkx.codec import BeaconPacket, PacketType, Position, decode_packet, encode_packet
from beaconkx.dh import MAX_MODULUS_BITS, DhParams
from beaconkx.grid import cell_side
from beaconkx.metrics import SAMPLE_PERIOD
from beaconkx.protocol import DhMode, NeighborEntry, NodeConfig, NodeState, make_node
from beaconkx.sim import (
    MAX_PRIME_SEARCHES,
    MAX_SAMPLES,
    MAX_VEHICLES,
    ConfigError,
    CryptoCosts,
    EventKind,
    Mobility,
    RouteOutcome,
    RouteProbe,
    SimConfig,
    Simulation,
    Vehicle,
    deliver_in_range,
    ground_truth_neighbors,
    mobility_update,
    route_probe,
    run,
    two_node_config,
)
from beaconkx.trace import (
    EV_ACK_RX,
    EV_ACK_TX,
    EV_BEACON_RX,
    EV_BEACON_TX,
    EV_KEY_ESTABLISHED,
    EV_NEIGHBOR_EXPIRED,
)

FAST_DH = {"dh_bits": 64}


def line_config(spacing, count, **overrides):
    """Static nodes on a horizontal line, `spacing` meters apart."""
    placements = tuple((100.0 + i * spacing, 100.0) for i in range(count))
    kwargs = dict(n_vehicles=count, placements=placements,
                  speed_range=(0.0, 0.0), **FAST_DH)
    kwargs.update(overrides)
    return SimConfig(**kwargs)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"n_vehicles": 0},
        {"n_vehicles": 2, "radio_range": 0.0},
        {"n_vehicles": 2, "duration": 0.0},
        {"n_vehicles": 2, "loss_rate": 1.5},
        {"n_vehicles": 2, "loss_rate": -0.1},
        {"n_vehicles": 2, "speed_range": (5.0, 1.0)},
        {"n_vehicles": 2, "area": (0.0, 100.0)},
        {"n_vehicles": 2, "placements": ((0.0, 0.0),)},
        {"n_vehicles": 2, "halts": ((3, 1.0),)},
        {"n_vehicles": 2, "halts": ((1, 99.0),)},
        {"n_vehicles": 2, "probes": (RouteProbe(1.0, 9, Position(0.0, 0.0)),)},
        {"n_vehicles": MAX_VEHICLES + 1, "duration": 1e-6},
        {"n_vehicles": 2, "dh_bits": MAX_MODULUS_BITS + 1},
        {"n_vehicles": 2, "duration": MAX_SAMPLES * SAMPLE_PERIOD * 1.001,
         "node_config": NodeConfig(beacon_interval=1e4, interval_max=1e4)},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SimConfig(**kwargs)

    def test_error_raised_before_any_simulation(self):
        with pytest.raises(ConfigError):
            run(SimConfig(n_vehicles=0))

    def test_replace_checks_the_copy(self):
        valid = two_node_config(100.0)
        with pytest.raises(ConfigError, match="sim.n_vehicles"):
            replace(valid, n_vehicles=0)

    def test_upper_bounds_are_inclusive(self):
        SimConfig(n_vehicles=MAX_VEHICLES, duration=1e-6, dh_bits=MAX_MODULUS_BITS)

    def test_set_up_bound_counts_one_prime_search_per_group(self):
        # A 512-bit group weighs one search; a global group is one search
        # however many vehicles share it.
        per_node = dict(dh_mode=DhMode.PER_NODE_PARAMS, duration=1e-6)
        SimConfig(n_vehicles=MAX_PRIME_SEARCHES, **per_node)
        with pytest.raises(ConfigError, match="sim.dh_bits"):
            SimConfig(n_vehicles=MAX_PRIME_SEARCHES + 1, **per_node)
        SimConfig(n_vehicles=MAX_PRIME_SEARCHES + 1, duration=1e-6)
        SimConfig(n_vehicles=15, dh_bits=MAX_MODULUS_BITS, **per_node)
        with pytest.raises(ConfigError, match="sim.dh_bits"):
            SimConfig(n_vehicles=16, dh_bits=MAX_MODULUS_BITS, **per_node)


class TestNumericValidation:
    @pytest.mark.parametrize("kwargs, key", [
        ({"radio_range": math.nan}, "sim.radio_range"),
        ({"radio_range": math.inf}, "sim.radio_range"),
        ({"prop_delay": math.nan}, "sim.prop_delay"),
        ({"duration": math.inf}, "sim.duration"),
        ({"area": (math.inf, 100.0)}, "sim.area_width"),
        ({"area": (100.0, math.nan)}, "sim.area_height"),
        ({"speed_range": (0.0, math.inf)}, "sim.speed_max"),
        ({"placements": ((0.0, math.nan), (1.0, 1.0))}, "sim.placements"),
        ({"probes": (RouteProbe(1.0, 1, Position(math.inf, 0.0)),)}, "sim.probes"),
    ])
    def test_non_finite_values_name_their_key(self, kwargs, key):
        with pytest.raises(ConfigError, match=key):
            SimConfig(n_vehicles=2, **kwargs)

    @pytest.mark.parametrize("field", ["param_gen", "sender_secret", "receiver_secret"])
    @pytest.mark.parametrize("value", [-5.0, math.nan, math.inf])
    def test_crypto_costs_must_be_finite_and_non_negative(self, field, value):
        with pytest.raises(ConfigError, match=f"sim.cost_{field}"):
            CryptoCosts(**{field: value})


class TestDurationCap:
    def test_one_timer_per_vehicle_per_shortest_period(self):
        # 1000 static vehicles beaconing every second reach 10^7 at 10^4 s.
        SimConfig(n_vehicles=1000, duration=1e4)
        for overrides in ({"duration": 1.001e4},
                          {"duration": 1001.0, "speed_range": (0.0, 1.0)},
                          {"duration": 5001.0, "node_config": NodeConfig(
                              adaptive=True, interval_min=0.5)}):
            with pytest.raises(ConfigError, match="sim.duration"):
                SimConfig(n_vehicles=1000, **overrides)


class TestDeliverInRange:
    POSITIONS = {1: Position(0.0, 0.0), 2: Position(100.0, 0.0),
                 3: Position(300.0, 0.0)}

    def test_beacon_reaches_only_nodes_in_range(self):
        out = deliver_in_range(self.POSITIONS, 1, PacketType.BEACON, None,
                               250.0, 0.0, random.Random(1))
        assert out == [(2, True)]

    def test_distance_equal_to_range_delivers(self):
        positions = {1: Position(0.0, 0.0), 2: Position(250.0, 0.0)}
        out = deliver_in_range(positions, 1, PacketType.BEACON, None,
                               250.0, 0.0, random.Random(1))
        assert out == [(2, True)]

    def test_ack_reaches_only_addressee(self):
        out = deliver_in_range(self.POSITIONS, 1, PacketType.ACK, 2,
                               250.0, 0.0, random.Random(1))
        assert out == [(2, True)]
        out = deliver_in_range(self.POSITIONS, 1, PacketType.ACK, 3,
                               250.0, 0.0, random.Random(1))
        assert out == []

    def test_loss_pattern_is_seed_deterministic(self):
        positions = {i: Position(float(i), 0.0) for i in range(1, 30)}
        first = deliver_in_range(positions, 1, PacketType.BEACON, None,
                                 100.0, 0.5, random.Random(42))
        second = deliver_in_range(positions, 1, PacketType.BEACON, None,
                                  100.0, 0.5, random.Random(42))
        assert first == second
        assert any(delivered for _, delivered in first)
        assert any(not delivered for _, delivered in first)

    def test_total_loss_drops_everything(self):
        out = deliver_in_range(self.POSITIONS, 1, PacketType.BEACON, None,
                               250.0, 1.0, random.Random(1))
        assert out == [(2, False)]


class TestMobilityUpdate:
    AREA = (1000.0, 1000.0)

    def test_linear_motion(self):
        v = Vehicle(1, 0.0, 0.0, vx=10.0, vy=0.0)
        mobility_update(v, 1.0, self.AREA, Mobility.CONSTANT_VELOCITY,
                        (0.0, 0.0), random.Random(1))
        assert (v.x, v.y) == (10.0, 0.0)

    def test_reflection_at_border(self):
        v = Vehicle(1, 995.0, 0.0, vx=10.0, vy=0.0)
        mobility_update(v, 1.0, self.AREA, Mobility.CONSTANT_VELOCITY,
                        (0.0, 0.0), random.Random(1))
        assert v.x == pytest.approx(995.0)  # 1005 reflects to 2*1000 - 1005
        assert v.vx == -10.0

    def test_reflection_at_zero(self):
        v = Vehicle(1, 3.0, 0.0, vx=-10.0, vy=0.0)
        mobility_update(v, 1.0, self.AREA, Mobility.CONSTANT_VELOCITY,
                        (0.0, 0.0), random.Random(1))
        assert v.x == pytest.approx(7.0)
        assert v.vx == 10.0

    def test_zero_velocity_fixed_point(self):
        v = Vehicle(1, 5.0, 6.0)
        mobility_update(v, 1.0, self.AREA, Mobility.CONSTANT_VELOCITY,
                        (0.0, 0.0), random.Random(1))
        assert (v.x, v.y) == (5.0, 6.0)

    def test_waypoint_walk_stays_in_bounds(self):
        v = Vehicle(1, 500.0, 500.0)
        rng = random.Random(9)
        for _ in range(500):
            mobility_update(v, 0.1, self.AREA, Mobility.RANDOM_WAYPOINT,
                            (5.0, 30.0), rng)
            assert 0.0 <= v.x <= 1000.0
            assert 0.0 <= v.y <= 1000.0

    def test_waypoint_redraws_on_arrival(self):
        v = Vehicle(1, 0.0, 0.0, waypoint=(1.0, 0.0), speed=100.0)
        mobility_update(v, 1.0, self.AREA, Mobility.RANDOM_WAYPOINT,
                        (5.0, 10.0), random.Random(2))
        assert (v.x, v.y) == (1.0, 0.0)
        assert v.waypoint != (1.0, 0.0)
        assert 5.0 <= v.speed <= 10.0

    def test_rejects_non_positive_dt(self):
        with pytest.raises(ValueError):
            mobility_update(Vehicle(1, 0.0, 0.0), 0.0, self.AREA,
                            Mobility.CONSTANT_VELOCITY, (0.0, 0.0),
                            random.Random(1))


class TestGroundTruth:
    def test_chain_adjacency(self):
        positions = {1: Position(0.0, 0.0), 2: Position(200.0, 0.0),
                     3: Position(400.0, 0.0)}
        adj = ground_truth_neighbors(positions, 250.0)
        assert adj == {1: {2}, 2: {1, 3}, 3: {2}}

    def test_single_node(self):
        assert ground_truth_neighbors({1: Position(0.0, 0.0)}, 250.0) == {1: set()}

    def test_coincident_nodes_form_complete_graph(self):
        positions = {i: Position(5.0, 5.0) for i in range(1, 5)}
        adj = ground_truth_neighbors(positions, 1.0)
        for node, peers in adj.items():
            assert peers == set(positions) - {node}


def brute_force_neighbors(positions, radio_range):
    """The test oracle: every pair compared, nothing pruned."""
    return {a: {b for b in positions
                if b != a and math.hypot(positions[a].x - positions[b].x,
                                         positions[a].y - positions[b].y) <= radio_range}
            for a in positions}


def sent_to(sim, at, sender, dest=None, seed=7):
    """Receivers of one ``_send`` at ``at`` with a loss stream seeded ``seed``,
    in the order the deliveries were pushed; checks what was pushed."""
    ptype = PacketType.BEACON if dest is None else PacketType.ACK
    pkt = BeaconPacket(identifiant=sender, version=1, ptype=ptype,
                       src_pos=Position(0.0, 0.0), public_value=b"\x05")
    sim._heap.clear()
    sim._rng_loss = random.Random(seed)
    sim._send(at, sender, dest, pkt)
    pushed = sorted(sim._heap, key=lambda event: event[3])
    assert all(event[0] == at + sim.config.prop_delay
               and event[1] == EventKind.PACKET_DELIVERY
               and event[4] == (sender, pkt) for event in pushed)
    return [event[2] for event in pushed]


@st.composite
def radio_scenes(draw):
    """A range and 1-8 points on cell corners, exactly one range apart,
    near +-1e300 or past the grid's key limit."""
    radio_range = draw(st.one_of(
        st.sampled_from([5e-324, 1e-300, 1.0, 250.0, 1e300]),
        st.floats(min_value=1e-6, max_value=1e6)))
    side = cell_side(radio_range)
    coordinate = st.one_of(
        st.integers(-3, 3).map(lambda k: k * side),
        st.sampled_from([1e300, -1e300, math.nextafter(1e300, 0.0),
                         2.0 ** 49, -(2.0 ** 49)]),
        st.floats(-4 * radio_range, 4 * radio_range))
    offsets = [(radio_range, 0.0), (-radio_range, 0.0),
               (0.0, radio_range), (0.0, -radio_range)]
    points = []
    for _ in range(draw(st.integers(1, 8))):
        if points and draw(st.booleans()):
            x, y = draw(st.sampled_from(points))
            dx, dy = draw(st.sampled_from(offsets))
            points.append((x + dx, y + dy))
        else:
            points.append((draw(coordinate), draw(coordinate)))
    return radio_range, points


class TestRadioView:
    @settings(max_examples=150, deadline=None)
    @given(scene=radio_scenes(), data=st.data())
    def test_matches_brute_force_over_live_positions(self, scene, data):
        radio_range, points = scene
        count = len(points)
        halts = tuple((node_id, 1.0) for node_id in range(1, count + 1)
                      if data.draw(st.booleans()))
        at = data.draw(st.sampled_from([0.5, 1.0, 2.0]))
        sim = Simulation(SimConfig(
            n_vehicles=count, placements=tuple(points), radio_range=radio_range,
            duration=3.0, loss_rate=0.5, halts=halts, **FAST_DH))
        halted = {node_id for node_id, t in halts if at >= t}
        live = {node_id: Position(x, y) for node_id, (x, y) in enumerate(points, 1)
                if node_id not in halted}
        sends = [(PacketType.BEACON, None)] + [
            (PacketType.ACK, dest) for dest in range(1, count + 1)]
        for sender in live:
            for ptype, dest in sends:
                got = sent_to(sim, at, sender, dest)
                oracle_rng = random.Random(7)
                expected = deliver_in_range(live, sender, ptype, dest, radio_range,
                                            0.5, oracle_rng)
                assert got == [node_id for node_id, delivered in expected if delivered]
                assert sim._rng_loss.getstate() == oracle_rng.getstate()

    @settings(max_examples=150, deadline=None)
    @given(scene=radio_scenes())
    def test_ground_truth_matches_brute_force(self, scene):
        radio_range, points = scene
        positions = {node_id: Position(x, y) for node_id, (x, y) in enumerate(points, 1)}
        assert ground_truth_neighbors(positions, radio_range) == \
            brute_force_neighbors(positions, radio_range)

    def test_keys_past_exact_floor_range_fall_back_to_one_cell(self):
        # Near 2**51 cells, floor division gives these two points, half a
        # metre apart, keys two apart: only one cell keeps them together.
        cfg = SimConfig(n_vehicles=2, radio_range=0.7, **FAST_DH, placements=(
            (2931158588877325.0, 0.0), (2931158588877325.5, 0.0)))
        sim = Simulation(cfg)
        assert sorted(sim._grid.block(1)) == [1, 2]
        assert sent_to(sim, 0.0, 1) == [2]
        positions = {i + 1: Position(*xy) for i, xy in enumerate(cfg.placements)}
        assert ground_truth_neighbors(positions, 0.7) == {1: {2}, 2: {1}}

    def test_beacon_view_skips_far_cells(self):
        sim = Simulation(line_config(1000.0, 5, radio_range=250.0))
        assert sim._grid.block(1) == [1]
        assert sent_to(sim, 0.0, 1) == []

    def test_ack_view_holds_sender_and_live_addressee(self):
        cfg = line_config(100.0, 4, duration=5.0, halts=((3, 1.0),))
        sim = Simulation(cfg)
        assert sent_to(sim, 0.5, 1, dest=3) == [3]
        assert sent_to(sim, 1.0, 1, dest=3) == []
        assert sent_to(sim, 1.0, 1) == [2]


class TestTwoNodeRuns:
    def test_in_range_pair_completes_both_handshakes(self):
        cfg = two_node_config(100.0, duration=10.0, **FAST_DH)
        trace, metrics = run(cfg)
        assert metrics.handshakes_completed == 2
        established = [r for r in trace if r.ev == EV_KEY_ESTABLISHED]
        assert {(r.node, r.peer) for r in established} == {(1, 2), (2, 1)}
        first_tx = min(r.t for r in trace if r.ev == EV_BEACON_TX)
        both_keyed = max(r.t for r in established[:2])
        assert both_keyed <= first_tx + 2 * cfg.prop_delay + 1e-9

    def test_keys_are_octet_identical(self):
        sim = Simulation(two_node_config(100.0, duration=5.0, **FAST_DH))
        sim.run()
        key_a = sim.nodes[1].neighbors[2].key
        key_b = sim.nodes[2].neighbors[1].key
        assert key_a is not None and key_a == key_b

    def test_out_of_range_pair_never_communicates(self):
        cfg = two_node_config(400.0, radio_range=250.0, duration=10.0, **FAST_DH)
        trace, metrics = run(cfg)
        assert all(r.ev == EV_BEACON_TX for r in trace)
        assert metrics.handshakes_completed == 0
        sim = Simulation(cfg)
        sim.run()
        assert sim.nodes[1].neighbors == {} and sim.nodes[2].neighbors == {}

    def test_total_loss_sends_but_never_delivers(self):
        cfg = two_node_config(100.0, loss_rate=1.0, duration=10.0, **FAST_DH)
        trace, metrics = run(cfg)
        assert metrics.beacons_sent > 0
        assert metrics.handshakes_completed == 0
        assert not [r for r in trace if r.ev == EV_BEACON_RX]


class TestDeterminism:
    def test_identical_config_gives_identical_bytes(self):
        cfg = SimConfig(n_vehicles=8, duration=6.0, speed_range=(5.0, 15.0),
                        mobility=Mobility.RANDOM_WAYPOINT, loss_rate=0.2,
                        seed=77, **FAST_DH)
        trace_a, metrics_a = run(cfg)
        trace_b, metrics_b = run(cfg)
        assert trace_a.to_jsonl() == trace_b.to_jsonl()
        assert metrics_a.to_json() == metrics_b.to_json()

    def test_different_seeds_differ(self):
        base = dict(n_vehicles=5, duration=4.0, **FAST_DH)
        trace_a, _ = run(SimConfig(seed=1, **base))
        trace_b, _ = run(SimConfig(seed=2, **base))
        assert trace_a.to_jsonl() != trace_b.to_jsonl()


class TestConservation:
    def test_every_reception_has_a_prior_send(self):
        cfg = SimConfig(n_vehicles=10, duration=5.0, loss_rate=0.3, seed=3,
                        speed_range=(0.0, 0.0), **FAST_DH)
        trace, metrics = run(cfg)
        tx_index = {EV_BEACON_TX: [], EV_ACK_TX: []}
        for rec in trace:
            if rec.ev in tx_index:
                tx_index[rec.ev].append(rec)
        for rec in trace:
            if rec.ev == EV_BEACON_RX:
                assert any(tx.node == rec.peer and tx.t < rec.t
                           for tx in tx_index[EV_BEACON_TX])
            elif rec.ev == EV_ACK_RX:
                assert any(tx.node == rec.peer and tx.peer == rec.node
                           and tx.t < rec.t for tx in tx_index[EV_ACK_TX])

    def test_bytes_on_air_sums_all_transmissions(self):
        cfg = SimConfig(n_vehicles=6, duration=5.0, loss_rate=0.5, seed=4,
                        speed_range=(0.0, 0.0), **FAST_DH)
        trace, metrics = run(cfg)
        expected = sum(int(r.extra["len"]) for r in trace
                       if r.ev in (EV_BEACON_TX, EV_ACK_TX))
        assert metrics.bytes_on_air == expected


class TestConvergence:
    def test_static_lossless_tables_match_ground_truth(self):
        cfg = SimConfig(n_vehicles=12, duration=6.0, seed=21,
                        speed_range=(0.0, 0.0), **FAST_DH)
        sim = Simulation(cfg)
        trace, metrics = sim.run()
        truth = ground_truth_neighbors(
            {i: v.position for i, v in sim.vehicles.items()}, cfg.radio_range)
        for node_id, state in sim.nodes.items():
            assert set(state.neighbors) == truth[node_id]
        for sample in metrics.table_samples:
            if sample.t >= 2.0:
                assert sample.precision == 1.0
                assert sample.recall == 1.0

    def test_no_expiries_in_lossless_static_run(self):
        cfg = SimConfig(n_vehicles=12, duration=10.0, seed=21,
                        speed_range=(0.0, 0.0), **FAST_DH)
        trace, metrics = run(cfg)
        assert metrics.expiries == 0

    def test_key_symmetry_for_established_pairs(self):
        cfg = SimConfig(n_vehicles=12, duration=6.0, seed=23,
                        speed_range=(0.0, 0.0), **FAST_DH)
        sim = Simulation(cfg)
        sim.run()
        for a, state in sim.nodes.items():
            for b, entry in state.neighbors.items():
                if entry.key is None:
                    continue
                mirror = sim.nodes[b].neighbors.get(a)
                assert mirror is not None
                assert mirror.key == entry.key

    def test_key_symmetry_at_every_sample_from_trace(self):
        cfg = SimConfig(n_vehicles=10, duration=8.0, seed=29,
                        speed_range=(0.0, 0.0), **FAST_DH)
        trace, _ = run(cfg)
        keys = {}
        records = sorted(trace, key=lambda r: r.t)
        cursor = 0
        for second in range(1, 9):
            while cursor < len(records) and records[cursor].t <= second:
                rec = records[cursor]
                if rec.ev == EV_KEY_ESTABLISHED:
                    keys[(rec.node, rec.peer)] = rec.extra["key"]
                cursor += 1
            for (a, b), key in keys.items():
                if (b, a) in keys:
                    assert keys[(b, a)] == key


class TestHalt:
    def test_halted_node_is_expired_within_bound(self):
        interval = 1.0
        halt_t = 3.25
        cfg = line_config(150.0, 4, duration=12.0, halts=((2, halt_t),),
                          node_config=NodeConfig(beacon_interval=interval))
        trace, metrics = run(cfg)
        expired = [r for r in trace if r.ev == EV_NEIGHBOR_EXPIRED]
        assert expired, "peers must notice the halted node"
        assert {r.peer for r in expired} == {2}
        deadline = halt_t + 4.5 * interval + interval
        for rec in expired:
            assert rec.t <= deadline + 1e-9
        # in-range peers of node 2 (spacing 150, range 250): nodes 1 and 3
        assert {r.node for r in expired} >= {1, 3}

    def test_halted_node_goes_silent(self):
        cfg = line_config(150.0, 3, duration=10.0, halts=((2, 3.0),))
        trace, _ = run(cfg)
        late = [r for r in trace if r.node == 2 and r.t >= 3.0
                and r.ev in (EV_BEACON_TX, EV_ACK_TX, EV_BEACON_RX, EV_ACK_RX)]
        assert late == []


class TestHaltWhileComputingAck:
    BASE = two_node_config(100.0, crypto_costs=CryptoCosts(0.0, 0.05, 0.05),
                           duration=5.0, seed=1, **FAST_DH)

    def halt_after_first(self, ev):
        """Halt the receiver of the first ``ev`` 0.01 s later, inside its
        0.05 s secret computation; return the node, halt time and trace."""
        trace, _ = run(self.BASE)
        first = min((r for r in trace if r.ev == ev), key=lambda r: r.t)
        halt_at = first.t + 0.01
        trace, _ = run(replace(self.BASE, halts=((first.node, halt_at),)))
        return first.node, halt_at, trace

    def test_responder_halting_before_its_ack_leaves_sends_nothing(self):
        responder, halt_at, trace = self.halt_after_first(EV_BEACON_RX)
        assert not [r for r in trace if r.ev == EV_ACK_TX and r.node == responder]
        assert not [r for r in trace if r.ev == EV_ACK_RX and r.peer == responder]
        assert not [r for r in trace if r.node == responder and r.t >= halt_at]

    def test_initiator_halting_before_its_key_is_computed_writes_nothing(self):
        initiator, halt_at, trace = self.halt_after_first(EV_ACK_RX)
        assert [r for r in trace if r.ev == EV_ACK_RX and r.node == initiator]
        assert not [r for r in trace if r.node == initiator and r.t >= halt_at]


class TestExpiryOncePerTimer:
    ADAPTIVE = SimConfig(n_vehicles=60, area=(1500.0, 1500.0),
                         speed_range=(5.0, 15.0), loss_rate=0.2, duration=10.0,
                         node_config=NodeConfig(adaptive=True, target_degree=4),
                         **FAST_DH)

    def test_one_expiry_call_per_beacon(self, monkeypatch):
        calls = []
        original = NodeState.expire_neighbors

        def counted(self, now):
            calls.append(now)
            return original(self, now)

        monkeypatch.setattr(NodeState, "expire_neighbors", counted)
        trace, _ = run(replace(self.ADAPTIVE, seed=1))
        assert len(calls) == sum(r.ev == EV_BEACON_TX for r in trace)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_final_tables_equal_tables_replayed_from_trace(self, seed):
        sim = Simulation(replace(self.ADAPTIVE, seed=seed))
        trace, metrics = sim.run()
        assert metrics.expiries > 0
        tables = {node_id: set() for node_id in sim.nodes}
        for rec in trace:
            if rec.ev in (EV_BEACON_RX, EV_ACK_RX):
                tables[rec.node].add(rec.peer)
            elif rec.ev == EV_NEIGHBOR_EXPIRED:
                tables[rec.node].discard(rec.peer)
        for node_id, state in sim.nodes.items():
            assert set(state.neighbors) == tables[node_id], node_id


def record_secret_calls(monkeypatch) -> list[tuple[DhParams, int, int]]:
    """Patch the exponentiation ``protocol`` calls to record its inputs."""
    import beaconkx.protocol as protocol

    calls = []
    original = protocol.compute_shared_secret

    def recorded(params, own_private, peer_public):
        calls.append((params, own_private, peer_public))
        return original(params, own_private, peer_public)

    monkeypatch.setattr(protocol, "compute_shared_secret", recorded)
    return calls


def exchange_of(call) -> tuple[int, int, frozenset[int]]:
    """The unordered exchange a call belongs to: group and both public values.

    ``Y^x`` depends only on ``X = w^x`` and ``Y``, so the two ends of one
    exchange map to the same value.
    """
    params, own_private, peer_public = call
    own_public = pow(params.w, own_private, params.p)
    return params.p, params.w, frozenset((own_public, peer_public))


class TestSecretMemo:
    # Lossy and mobile, one group per node: an entry's key keeps flipping
    # between the exchange in the node's group and the one in the peer's.
    FLIPPING = SimConfig(n_vehicles=8, area=(300.0, 300.0), radio_range=250.0,
                         speed_range=(5.0, 15.0), mobility=Mobility.RANDOM_WAYPOINT,
                         duration=8.0, loss_rate=0.25, seed=1,
                         dh_mode=DhMode.PER_NODE_PARAMS, **FAST_DH)
    # Lossless, static, every node in range of every other, one group.
    ALL_IN_RANGE = replace(line_config(10.0, 24), duration=4.0)

    def test_no_exponentiation_is_repeated(self, monkeypatch):
        unpatched, _ = run(self.FLIPPING)
        calls = record_secret_calls(monkeypatch)
        trace, _ = run(self.FLIPPING)
        assert calls
        # One call per exchange, not one per end.
        assert len({exchange_of(call) for call in calls}) == len(calls)
        assert sum(r.ev == EV_KEY_ESTABLISHED for r in trace) > len(calls)
        assert trace.to_jsonl() == unpatched.to_jsonl()

    def test_one_exponentiation_per_pair_in_a_shared_group(self, monkeypatch):
        unpatched, _ = run(self.ALL_IN_RANGE)
        calls = record_secret_calls(monkeypatch)
        trace, _ = run(self.ALL_IN_RANGE)
        n = self.ALL_IN_RANGE.n_vehicles
        assert len(calls) == n * (n - 1) // 2
        assert len({exchange_of(call) for call in calls}) == len(calls)
        keyed = {(r.node, r.peer) for r in trace if r.ev == EV_KEY_ESTABLISHED}
        assert len(keyed) == n * (n - 1)
        assert trace.to_jsonl() == unpatched.to_jsonl()


class TestPacketHandOver:
    def test_handlers_get_the_sent_packet_and_the_engine_never_decodes(self, monkeypatch):
        import beaconkx.codec as codec
        import beaconkx.sim as sim

        def no_decode(raw):
            raise AssertionError("the engine decoded a packet")

        monkeypatch.setattr(codec, "decode_packet", no_decode)
        received = []
        for name in ("on_receive_beacon", "on_receive_ack"):
            handler = getattr(NodeState, name)

            def recorded(state, pkt, now, handler=handler):
                received.append((state.node_id, pkt))
                return handler(state, pkt, now)

            monkeypatch.setattr(NodeState, name, recorded)
        trace, _ = run(TestSecretMemo.ALL_IN_RANGE)
        assert "decode_packet" not in vars(sim) and "encode_packet" not in vars(sim)
        rx = [r for r in trace if r.ev in (EV_BEACON_RX, EV_ACK_RX)]
        assert len(rx) == len(received) > sum(r.ev in (EV_BEACON_TX, EV_ACK_TX) for r in trace)
        for record, (node_id, pkt) in zip(rx, received):
            raw = encode_packet(pkt)
            assert decode_packet(raw) == pkt
            assert (record.node, record.peer) == (node_id, pkt.identifiant)
            assert record.extra["len"] == len(raw)


class TestMobilityExpiry:
    def test_node_leaving_range_is_expired(self):
        cfg = SimConfig(n_vehicles=2,
                        placements=((100.0, 500.0), (200.0, 500.0)),
                        speed_range=(40.0, 40.0), duration=20.0,
                        radio_range=250.0, seed=5, **FAST_DH)
        sim = Simulation(cfg)
        # Drive the pair apart deterministically.
        sim.vehicles[1].vx, sim.vehicles[1].vy = -40.0, 0.0
        sim.vehicles[2].vx, sim.vehicles[2].vy = 40.0, 0.0
        trace, metrics = sim.run()
        expirations = [r for r in trace if r.ev == EV_NEIGHBOR_EXPIRED]
        assert len(expirations) == 2
        last_rx = max(r.t for r in trace if r.ev in (EV_BEACON_RX, EV_ACK_RX))
        timeout = 4.5 * cfg.node_config.beacon_interval
        slack = cfg.node_config.beacon_interval
        for rec in expirations:
            assert rec.t <= last_rx + timeout + slack + 1e-9


class TestRouteProbe:
    def run_static(self, placements, probes, **overrides):
        cfg = SimConfig(n_vehicles=len(placements), placements=placements,
                        speed_range=(0.0, 0.0), duration=5.0,
                        probes=probes, **FAST_DH, **overrides)
        sim = Simulation(cfg)
        trace, _ = sim.run()
        return sim, trace

    def test_chain_routes_hop_by_hop(self):
        placements = ((0.0, 0.0), (200.0, 0.0), (400.0, 0.0))
        probe = RouteProbe(at=4.0, src=1, dest=Position(400.0, 0.0))
        sim, trace = self.run_static(placements, (probe,))
        (result,) = sim.probe_results
        assert result.outcome is RouteOutcome.REACHED
        assert result.hops == (1, 2, 3)

    def test_adjacent_destination_single_hop(self):
        placements = ((0.0, 0.0), (200.0, 0.0))
        probe = RouteProbe(at=4.0, src=1, dest=Position(200.0, 0.0))
        sim, _ = self.run_static(placements, (probe,))
        (result,) = sim.probe_results
        assert result.outcome is RouteOutcome.REACHED
        assert result.hops == (1, 2)

    def test_probe_at_the_horizon_runs_and_is_traced(self):
        placements = ((0.0, 0.0), (200.0, 0.0))
        probe = RouteProbe(at=5.0, src=1, dest=Position(200.0, 0.0))
        sim, trace = self.run_static(placements, (probe,))
        (result,) = sim.probe_results
        assert result.hops == (1, 2)
        assert [(r.t, r.ev, r.node, r.peer) for r in trace
                if r.ev.startswith("route_")] == [(5.0, "route_hop", 1, 2)]

    def test_void_yields_local_max(self):
        # Node 4 is closest to the destination but unreachable greedily:
        # node 1's only neighbor (2) is farther from the destination.
        placements = ((0.0, 0.0), (-50.0, 0.0), (-100.0, 0.0), (390.0, 0.0))
        probe = RouteProbe(at=4.0, src=1, dest=Position(400.0, 0.0))
        sim, trace = self.run_static(placements, (probe,), radio_range=120.0)
        (result,) = sim.probe_results
        assert result.outcome is RouteOutcome.LOCAL_MAX
        assert result.final_node == 1
        assert any(r.ev == "route_local_max" and r.node == 1 for r in trace)

    def test_hop_limit_guards_against_stale_loops(self):
        # Two nodes whose stale tables each claim the other is closer.
        params = DhParams(p=23, w=5)
        node_a = make_node(1, Position(0.0, 0.0), NodeConfig(),
                           DhMode.GLOBAL_PARAMS, rng=random.Random(1),
                           params=params)
        node_b = make_node(2, Position(5.0, 0.0), NodeConfig(),
                           DhMode.GLOBAL_PARAMS, rng=random.Random(2),
                           params=params)
        node_a.neighbors[2] = NeighborEntry(2, Position(8.0, 0.0), 0.0)
        node_b.neighbors[1] = NeighborEntry(1, Position(9.0, 0.0), 0.0)
        result = route_probe({1: node_a, 2: node_b}, 1, Position(10.0, 0.0),
                             max_hops=2)
        assert result.outcome is RouteOutcome.HOP_LIMIT
        assert result.hops == (1, 2, 1)


class TestCryptoCosts:
    def test_costed_handshake_is_slower_but_symmetric(self):
        costs = CryptoCosts()
        cfg = two_node_config(100.0, dh_mode=DhMode.PER_NODE_PARAMS,
                              crypto_costs=costs, duration=10.0, **FAST_DH)
        sim = Simulation(cfg)
        trace, metrics = sim.run()
        first_timer = min(r.extra["timer_at"] for r in trace
                          if r.ev == EV_BEACON_TX)
        first_key = min(r.t for r in trace if r.ev == EV_KEY_ESTABLISHED)
        # param generation + propagation + responder secret
        expected = costs.param_gen + cfg.prop_delay + costs.receiver_secret
        assert first_key - first_timer == pytest.approx(expected, abs=1e-6)
        assert sim.nodes[1].neighbors[2].key == sim.nodes[2].neighbors[1].key

    def test_zero_cost_default_keeps_first_beacon_on_time(self):
        cfg = two_node_config(100.0, duration=5.0, **FAST_DH)
        trace, _ = run(cfg)
        first_tx = min((r for r in trace if r.ev == EV_BEACON_TX),
                       key=lambda r: r.t)
        assert first_tx.t == first_tx.extra["timer_at"]
