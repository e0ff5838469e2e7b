"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single ``[criterion N] PASS`` line when its guarantee
holds at the stated tolerance (run with ``-s`` to see them); a failing
guarantee fails the test itself.
"""

import math
import random
import struct
import time
from pathlib import Path

import pytest

from beaconkx.cli import main, run_bench
from beaconkx.codec import (
    BeaconPacket,
    DecodeError,
    PacketType,
    Position,
    decode_packet,
    encode_packet,
    encode_param_triple,
    int_to_magnitude,
)
from beaconkx.dh import (
    DhError,
    DhParams,
    compute_shared_secret,
    derive_symmetric_key,
    generate_dh_params,
    generate_keypair,
    keypair_from_private,
    mod_exp,
)
from beaconkx.grid import pairs_in_range
from beaconkx.protocol import (
    DhMode,
    NeighborEntry,
    NodeConfig,
    NodeState,
)
from beaconkx.sim import (
    CryptoCosts,
    RouteOutcome,
    RouteProbe,
    SimConfig,
    route_probe,
    run,
)
from beaconkx.trace import (
    EV_BEACON_TX,
    EV_KEY_ESTABLISHED,
    EV_NEIGHBOR_EXPIRED,
)

FIXTURES = Path(__file__).parent / "fixtures"


def report(criterion: int, text: str) -> None:
    print(f"\n[criterion {criterion}] PASS  {text}")


def small_primes_up_to(limit: int) -> list[int]:
    sieve = [True] * (limit + 1)
    sieve[0] = sieve[1] = False
    for n in range(2, int(limit ** 0.5) + 1):
        if sieve[n]:
            for k in range(n * n, limit + 1, n):
                sieve[k] = False
    return [n for n, prime in enumerate(sieve) if prime]


def test_criterion_1_dh_agreement():
    started = time.time()
    rng = random.Random("acceptance/agreement")

    # 1000 randomized 512-bit exchanges across fresh parameter sets.
    agreed = 0
    for _ in range(20):
        params = generate_dh_params(512, rng)
        for _ in range(50):
            alice = generate_keypair(params, rng)
            bob = generate_keypair(params, rng)
            key_a = derive_symmetric_key(compute_shared_secret(
                params, alice.private_exponent, bob.public_value))
            key_b = derive_symmetric_key(compute_shared_secret(
                params, bob.private_exponent, alice.public_value))
            assert key_a == key_b
            agreed += 1
    assert agreed == 1000

    # Exhaustive over all exponent pairs for every usable prime <= 100.
    # Exponents whose public value degenerates to 1 or p-1 must be
    # refused identically by both sides; every accepted pair must agree.
    pair_count = 0
    for p in small_primes_up_to(100):
        if p < 5:
            continue  # no room for exponents in [2, p-2]
        bases = range(2, p - 1) if p <= 31 else \
            [rng.randrange(2, p - 1) for _ in range(5)]
        for w in bases:
            params = DhParams(p=p, w=w)
            publics = {a: mod_exp(w, a, p) for a in range(2, p - 1)}
            for a in range(2, p - 1):
                for b in range(2, p - 1):
                    alpha, beta = publics[a], publics[b]
                    if alpha in (1, p - 1) or beta in (1, p - 1):
                        bad = beta if beta in (1, p - 1) else alpha
                        with pytest.raises(DhError, match="peer public value must be in"):
                            compute_shared_secret(params, a, bad)
                        continue
                    assert compute_shared_secret(params, a, beta) == \
                        compute_shared_secret(params, b, alpha)
                    pair_count += 1

    elapsed = time.time() - started
    assert elapsed < 300, f"agreement suite must finish in < 5 min, took {elapsed:.0f}s"
    report(1, f"1000/1000 512-bit exchanges agree; {pair_count} exhaustive "
              f"small-prime pairs agree ({elapsed:.1f}s)")


def test_criterion_2_mod_exp_oracle_equivalence():
    rng = random.Random("acceptance/oracle")
    cases = 0
    for modulus in range(2, 1001):
        bases = [rng.randrange(0, 2 * modulus)]
        if modulus <= 502:  # second base pushes the sweep past 10^6 cases
            bases.append(rng.randrange(0, 2 * modulus))
        for base in bases:
            running = 1 % modulus  # independent oracle: repeated multiplication
            for exponent in range(0, 1001):
                assert mod_exp(base, exponent, modulus) == running, (
                    base, exponent, modulus)
                running = running * base % modulus
                cases += 1
    assert cases >= 1_000_000
    report(2, f"{cases} oracle cases, zero mismatches")


def test_criterion_3_bench_structure():
    result = run_bench(bits=512, trials=10, seed=1)
    slower_secret = max(result.initiator_secret_ns, result.responder_secret_ns)
    faster_secret = min(result.initiator_secret_ns, result.responder_secret_ns)
    assert result.param_gen_ns >= 10 * slower_secret, (
        f"parameter generation {result.param_gen_ns} ns not >= 10x "
        f"secret computation {slower_secret} ns")
    assert slower_secret <= 3 * faster_secret, (
        f"secret computations differ by more than 3x: "
        f"{result.initiator_secret_ns} vs {result.responder_secret_ns}")
    report(3, f"param gen {result.param_gen_ns} ns >= 10x secrets "
              f"({result.initiator_secret_ns} / {result.responder_secret_ns} ns), "
              f"secrets within 3x")


def test_criterion_4_handshake_latency_with_injected_costs():
    cfg = SimConfig(
        n_vehicles=2,
        placements=((100.0, 100.0), (200.0, 100.0)),
        speed_range=(0.0, 0.0),
        duration=10.0,
        dh_mode=DhMode.PER_NODE_PARAMS,
        crypto_costs=CryptoCosts(),
        seed=1,
    )
    trace, _ = run(cfg)
    first_timer = min(r.extra["timer_at"] for r in trace if r.ev == EV_BEACON_TX)
    first_key = min(r.t for r in trace if r.ev == EV_KEY_ESTABLISHED)
    latency = first_key - first_timer
    assert 3.5 <= latency <= 4.5, f"handshake latency {latency:.3f}s outside [3.5, 4.5]"
    report(4, f"first key established {latency:.3f}s after the initiator's timer")


CONVERGENCE_SCENE = dict(
    n_vehicles=30,
    area=(1000.0, 1000.0),
    radio_range=250.0,
    speed_range=(0.0, 0.0),
    loss_rate=0.0,
    node_config=NodeConfig(beacon_interval=1.0),
    seed=2026,
)


def test_criterion_5_lossless_static_convergence():
    trace, metrics = run(SimConfig(duration=10.0, **CONVERGENCE_SCENE))
    checked = 0
    for sample in metrics.table_samples:
        if sample.t <= 2.0 - 1e-9:
            continue
        assert sample.precision == 1.0, f"precision {sample.precision} at t={sample.t}"
        assert sample.recall == 1.0, f"recall {sample.recall} at t={sample.t}"
        checked += 1
    assert checked >= 8
    report(5, f"precision = recall = 1.0 at all {checked} samples after t=2s")


def test_criterion_6_expiry_after_halt():
    halt_node, halt_t = 7, 4.2
    interval = 1.0
    cfg = SimConfig(duration=12.0, halts=((halt_node, halt_t),),
                    **CONVERGENCE_SCENE)
    # Which peers are in range of the halted node?
    from beaconkx.sim import Simulation
    sim = Simulation(cfg)
    points = {i: (v.x, v.y) for i, v in sim.vehicles.items()}
    in_range = {b if a == halt_node else a
                for a, b in pairs_in_range(points, cfg.radio_range) if halt_node in (a, b)}
    assert in_range, "scene must give the halted node at least one neighbor"

    trace, _ = sim.run()
    expirations = [r for r in trace if r.ev == EV_NEIGHBOR_EXPIRED]
    assert {r.peer for r in expirations} == {halt_node}, "spurious expiries"
    noticed = {r.node for r in expirations}
    assert noticed == in_range, f"peers {in_range - noticed} never expired the halted node"
    deadline = halt_t + 4.5 * interval + interval
    worst = max(r.t for r in expirations)
    assert worst <= deadline + 1e-9, f"expiry at {worst:.3f}s after deadline {deadline:.3f}s"
    report(6, f"{len(noticed)} in-range peers expired the halted node by "
              f"{worst:.3f}s (deadline {deadline:.3f}s), no spurious expiries")


def test_criterion_7_codec_round_trip_golden_and_fuzz():
    rng = random.Random("acceptance/codec")

    def random_packet() -> BeaconPacket:
        version = rng.choice((1, 2))
        ptype = rng.choice((PacketType.BEACON, PacketType.ACK))
        if version == 2 and ptype is PacketType.BEACON:
            payload = encode_param_triple(
                rng.getrandbits(128), rng.getrandbits(64), rng.getrandbits(128))
        else:
            payload = int_to_magnitude(rng.getrandbits(rng.randrange(1, 256)))
        x, y = struct.unpack(">ff", struct.pack(
            ">ff", rng.uniform(-1e4, 1e4), rng.uniform(-1e4, 1e4)))
        return BeaconPacket(
            identifiant=rng.randrange(0, 2**32), version=version, ptype=ptype,
            src_pos=Position(x, y), public_value=payload)

    for _ in range(100_000):
        pkt = random_packet()
        raw = encode_packet(pkt)
        assert decode_packet(raw) == pkt
        assert encode_packet(decode_packet(raw)) == raw

    golden_lines = [
        line.strip() for line in
        (FIXTURES / "golden_packets.hex").read_text().splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    golden = [decode_packet(bytes(int(tok, 16) for tok in line.split()))
              for line in golden_lines]
    assert golden[0] == BeaconPacket(1, 1, PacketType.BEACON,
                                     Position(0.0, 0.0), b"\x08")
    assert len(encode_packet(golden[0])) == 19
    assert golden[1].src_pos == Position(1.5, -2.0)
    assert golden[2].ptype is PacketType.ACK and golden[2].identifiant == 2
    assert golden[2].public_value == b"\x13"
    assert golden[3].version == 2
    from beaconkx.codec import decode_param_triple
    assert decode_param_triple(golden[3].public_value) == (23, 5, 8)
    assert golden[4].identifiant == 0xDEADBEEF

    blob = rng.randbytes(45_000_000)
    decoded = 0
    for i in range(1_000_000):
        start = i * 45
        buf = blob[start:start + rng.randrange(0, 45)]
        try:
            decode_packet(buf)
            decoded += 1
        except DecodeError:
            pass
    report(7, f"100000 packets round-trip; {len(golden)} golden vectors match; "
              f"1000000 fuzz buffers, zero crashes ({decoded} decoded)")


def _oracle_next_hop(own_pos, table, dest):
    """Independent restatement: argmin distance, strict progress, id tie-break."""
    ranked = sorted((math.hypot(pos.x - dest.x, pos.y - dest.y), peer)
                    for peer, pos in table.items())
    if not ranked:
        return None
    own = math.hypot(own_pos.x - dest.x, own_pos.y - dest.y)
    return ranked[0][1] if ranked[0][0] < own else None


def _static_nodes(positions, radio_range):
    params = DhParams(p=23, w=5)
    keypair = keypair_from_private(params, 6)
    nodes = {
        node_id: NodeState(node_id=node_id, own_position=pos,
                           config=NodeConfig(), dh_mode=DhMode.GLOBAL_PARAMS,
                           dh_params=params, keypair=keypair,
                           rng=random.Random(node_id))
        for node_id, pos in positions.items()}
    points = {node_id: (pos.x, pos.y) for node_id, pos in positions.items()}
    for a, b in pairs_in_range(points, radio_range):
        for node_id, peer in ((a, b), (b, a)):
            nodes[node_id].neighbors[peer] = NeighborEntry(
                positions[peer], last_seen=0.0, key=b"\x00" * 16)
    return nodes


def test_criterion_8_greedy_matches_oracle_and_void_stalls():
    rng = random.Random("acceptance/greedy")
    for topology in range(100):
        count = rng.randrange(5, 26)
        # Integer grid coordinates make distance ties genuinely common.
        positions = {i + 1: Position(float(rng.randrange(0, 13) * 60),
                                     float(rng.randrange(0, 13) * 60))
                     for i in range(count)}
        nodes = _static_nodes(positions, radio_range=150.0)
        src = rng.randrange(1, count + 1)
        dest = Position(float(rng.randrange(0, 13) * 60),
                        float(rng.randrange(0, 13) * 60))
        result = route_probe(nodes, src, dest, max_hops=count)

        current = src
        for nxt in result.hops[1:]:
            expected = _oracle_next_hop(
                nodes[current].own_position,
                {p: e.position for p, e in nodes[current].neighbors.items()},
                dest)
            assert nxt == expected, (topology, current, nxt, expected)
            current = nxt
        if result.outcome is not RouteOutcome.HOP_LIMIT:
            assert _oracle_next_hop(
                nodes[current].own_position,
                {p: e.position for p, e in nodes[current].neighbors.items()},
                dest) is None

    # Hand-built void: the node nearest the destination is greedily
    # unreachable, so forwarding stalls at the source.
    void_positions = {1: Position(0.0, 0.0), 2: Position(-50.0, 0.0),
                      3: Position(-100.0, 0.0), 4: Position(390.0, 0.0)}
    nodes = _static_nodes(void_positions, radio_range=120.0)
    result = route_probe(nodes, 1, Position(400.0, 0.0), max_hops=4)
    assert result.outcome is RouteOutcome.LOCAL_MAX
    assert result.final_node == 1
    report(8, "100 random topologies match the brute-force oracle at every hop; "
              "void topology stalls at its local maximum")


def test_criterion_9_trace_determinism(tmp_path):
    cfg_text = """
sim.n_vehicles = 12
sim.duration = 6
sim.seed = 9
sim.dh_bits = 64
sim.loss_rate = 0.3
sim.speed_min = 5
sim.speed_max = 15
sim.mobility = random_waypoint
sim.probes = 4.0:1:500:500
"""
    cfg_file = tmp_path / "det.cfg"
    cfg_file.write_text(cfg_text)
    outputs = []
    for name in ("first", "second"):
        trace_path = tmp_path / f"{name}.jsonl"
        metrics_path = tmp_path / f"{name}.json"
        assert main(["run", "--config", str(cfg_file),
                     "--trace", str(trace_path),
                     "--metrics", str(metrics_path)]) == 0
        outputs.append((trace_path.read_bytes(), metrics_path.read_bytes()))
    assert outputs[0][0] == outputs[1][0], "trace files differ between reruns"
    assert outputs[0][1] == outputs[1][1], "metrics files differ between reruns"
    assert len(outputs[0][0]) > 0
    report(9, f"re-run produced byte-identical outputs "
              f"({len(outputs[0][0])} trace bytes)")
