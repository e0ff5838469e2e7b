"""Invariants of whole runs, checked from the trace file alone, and
the trace's keys checked against the run's key pairs.

Small random configs cover both DH modes, crypto costs, adaptive
beaconing, both mobility models, loss, halts, probes and static pairs at
the edge of the radio range. Each run's trace text must replay to the
run's own metrics, and every record in it must follow from the model: a
reception from a transmission in range, an ACK from a beacon heard, and
in a shared group one key per pair. A halted node writes nothing from
its halt instant on. Every recorded key must be one that builtin ``pow``
gives for an exchange between the two nodes' key pairs.
"""

import math
from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from beaconkx.codec import Position
from beaconkx.metrics import compute_metrics
from beaconkx.protocol import DhMode, NodeConfig
from beaconkx.sim import (MOBILITY_TICK_INTERVAL, CryptoCosts, Mobility, RouteProbe, SimConfig,
                          Simulation, run)
from beaconkx.trace import (
    EV_ACK_RX,
    EV_ACK_TX,
    EV_BEACON_RX,
    EV_BEACON_TX,
    EV_KEY_ESTABLISHED,
    EV_ROUTE_HOP,
    EV_ROUTE_LOCAL_MAX,
    Trace,
)

# The file writes six decimals: a time is off by at most 5e-7, and a
# distance between two written positions by at most 2 * sqrt(2) * 5e-7.
TIME_TOLERANCE = 2e-6
DISTANCE_TOLERANCE = 2e-6

COST = st.floats(0.0, 0.5)


@st.composite
def node_configs(draw):
    interval = draw(st.floats(0.2, 2.0))
    return NodeConfig(
        beacon_interval=interval,
        expiry_multiplier=draw(st.floats(1.5, 5.0)),
        adaptive=draw(st.booleans()),
        target_degree=draw(st.integers(1, 8)),
        adapt_gain=draw(st.floats(0.0, 1.0)),
        interval_min=draw(st.floats(0.1, interval)),
        interval_max=draw(st.floats(interval, 4.0)))


@st.composite
def sim_configs(draw):
    n = draw(st.integers(2, 12))
    side = draw(st.floats(100.0, 600.0))
    duration = draw(st.floats(1.0, 5.0))
    speed_max = draw(st.sampled_from([0.0, 5.0, 20.0]))
    halted = draw(st.lists(st.integers(1, n), max_size=2, unique=True))
    probes = draw(st.lists(st.builds(
        RouteProbe, at=st.floats(0.0, duration), src=st.integers(1, n),
        dest=st.builds(Position, st.floats(0.0, side), st.floats(0.0, side))), max_size=2))
    radio_range = draw(st.floats(0.2, 1.0)) * side
    placements = None
    if speed_max == 0.0 and draw(st.booleans()):
        # Node 2 at the edge of node 1's range, where the file's six
        # decimals can put the pair on the other side of it.
        points = draw(st.lists(st.tuples(st.floats(0.0, side), st.floats(0.0, side)),
                               min_size=n, max_size=n))
        delta = draw(st.sampled_from([-4e-7, 0.0, 4e-7]))
        x, y = points[0]
        points[1] = (x + radio_range + delta, y)
        placements = tuple(points)
    return SimConfig(
        n_vehicles=n,
        area=(side, side),
        radio_range=radio_range,
        speed_range=(draw(st.floats(0.0, speed_max)), speed_max),
        mobility=draw(st.sampled_from(Mobility)),
        duration=duration,
        loss_rate=draw(st.one_of(st.sampled_from([0.0, 0.1, 0.5]), st.floats(0.0, 1.0))),
        prop_delay=draw(st.sampled_from([0.0, 0.001, 0.05])),
        seed=draw(st.integers(0, 10**6)),
        node_config=draw(node_configs()),
        dh_bits=draw(st.integers(16, 64)),
        dh_mode=draw(st.sampled_from(DhMode)),
        crypto_costs=draw(st.one_of(st.none(), st.builds(CryptoCosts, COST, COST, COST))),
        halts=tuple((node, draw(st.floats(0.0, duration))) for node in halted),
        probes=tuple(probes),
        placements=placements)


def by_pair(records, ev):
    """``(node, peer) -> [(t, pos)]`` of the records ``ev``."""
    sent = defaultdict(list)
    for rec in records:
        if rec.ev == ev:
            sent[(rec.node, rec.peer)].append((rec.t, rec.pos))
    return sent


def match(candidates, t):
    """The position of the candidate written at ``t``, or None."""
    for at, pos in candidates:
        if abs(at - t) <= TIME_TOLERANCE:
            return pos
    return None


def receptions_problems(records, cfg: SimConfig) -> list[str]:
    """Every rx at t has a tx of its kind by ``peer`` at t - prop_delay, and
    the receiver lies within range of where that tx was written.

    A tx record holds the sender's position at the send instant, when the
    engine decides who hears it. The receiver may move on every mobility
    tick from then to its rx.
    """
    beacons = by_pair(records, EV_BEACON_TX)
    acks = by_pair(records, EV_ACK_TX)
    problems = []
    for rec in records:
        if rec.ev == EV_BEACON_RX:
            origin = match(beacons[(rec.peer, None)], rec.t - cfg.prop_delay)
        elif rec.ev == EV_ACK_RX:
            origin = match(acks[(rec.peer, rec.node)], rec.t - cfg.prop_delay)
        else:
            continue
        if origin is None:
            problems.append(f"{rec}: no transmission")
            continue
        ticks = math.floor(cfg.prop_delay / MOBILITY_TICK_INTERVAL) + 1
        drift = ticks * cfg.speed_range[1] * MOBILITY_TICK_INTERVAL
        d = math.hypot(origin[0] - rec.pos[0], origin[1] - rec.pos[1])
        if d > cfg.radio_range + drift + DISTANCE_TOLERANCE:
            problems.append(f"{rec}: {d} m from its transmission")
    return problems


def unanswered_acks(records, cfg: SimConfig) -> list[str]:
    """Every ``ack_tx`` to A by B leaves ``receiver_secret`` after B heard a
    beacon from A."""
    heard = by_pair(records, EV_BEACON_RX)
    cost = cfg.crypto_costs.receiver_secret if cfg.crypto_costs else 0.0
    return [f"{rec}: answers no beacon" for rec in records if rec.ev == EV_ACK_TX
            and match(heard[(rec.node, rec.peer)], rec.t - cost) is None]


def halted_speakers(records, cfg: SimConfig) -> list[str]:
    """Records naming a node as ``node`` at or after its halt instant.

    Route walks are left out: ``route_probe`` checks no halts, so a walk
    still steps through a halted node, a known fault of the model not yet
    mended.
    """
    halt_at = dict(cfg.halts)
    return [f"{rec}: node halted at {halt_at[rec.node]}" for rec in records
            if rec.node in halt_at and rec.t >= halt_at[rec.node]
            and rec.ev not in (EV_ROUTE_HOP, EV_ROUTE_LOCAL_MAX)]


def keys_per_pair(records) -> dict[frozenset, set[str]]:
    keys = defaultdict(set)
    for rec in records:
        if rec.ev == EV_KEY_ESTABLISHED:
            keys[frozenset((rec.node, rec.peer))].add(rec.extra["key"])
    return keys


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cfg=sim_configs())
def test_run_invariants_hold_in_the_trace_file(cfg):
    trace, metrics = run(cfg)
    text = trace.to_jsonl()
    again, again_metrics = run(cfg)
    assert again.to_jsonl() == text and again_metrics.to_json() == metrics.to_json()

    # The run's records: at six decimals a record 4e-7 s before a halt
    # reads as at it.
    assert halted_speakers(trace.records, cfg) == []

    read = Trace.from_jsonl(text)
    assert read.to_jsonl() == text
    replayed = compute_metrics(read, radio_range=cfg.radio_range, duration=cfg.duration)
    assert replayed.to_json() == metrics.to_json()

    records = read.records
    assert receptions_problems(records, cfg) == []
    assert unanswered_acks(records, cfg) == []
    if cfg.dh_mode is DhMode.GLOBAL_PARAMS:
        assert {pair: keys for pair, keys in keys_per_pair(records).items()
                if len(keys) > 1} == {}


def pow_key(peer_public: int, own_private: int, p: int) -> str:
    """The 16 low octets of ``peer_public^own_private mod p``, as hex."""
    return (pow(peer_public, own_private, p) % (1 << 128)).to_bytes(16, "big").hex()


def answering_pair(node, peer_id: int, params):
    """``node``'s key pair inside ``params``: its own in its own group, else
    the one it keeps for answering ``peer_id``, if it made one."""
    if node.dh_params == params:
        return node.keypair
    group, pair = node._responder_keys.get(peer_id, (None, None))
    return pair if group == params else None


def key_problems(records, nodes) -> list[str]:
    """Every ``key_established`` key of A for B is pow's key of A's exchange
    in its own group, which B answered, or of A's answer in B's group."""
    problems = []
    for node_id, node in nodes.items():
        pairs = [(node.dh_params, node.keypair), *node._responder_keys.values()]
        problems += [f"node {node_id}: {pair} is not a key pair of {params}"
                     for params, pair in pairs
                     if pow(params.w, pair.private_exponent, params.p) != pair.public_value]
    for rec in records:
        if rec.ev != EV_KEY_ESTABLISHED:
            continue
        a, b = nodes[rec.node], nodes[rec.peer]
        expected = set()
        b_answer = answering_pair(b, rec.node, a.dh_params)
        if b_answer is not None:
            expected.add(pow_key(b_answer.public_value, a.keypair.private_exponent,
                                 a.dh_params.p))
        a_answer = answering_pair(a, rec.peer, b.dh_params)
        if a_answer is not None:
            expected.add(pow_key(b.keypair.public_value, a_answer.private_exponent,
                                 b.dh_params.p))
        if rec.extra["key"] not in expected:
            problems.append(f"{rec}: matches no exchange")
    return problems


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cfg=sim_configs())
def test_every_key_is_a_pow_key_of_the_two_nodes(cfg):
    sim = Simulation(cfg)
    trace, _metrics = sim.run()
    assert key_problems(trace.records, sim.nodes) == []
