"""Pinned SHA-256 digests of the trace and metrics of seven fixed runs.

These are the refactor oracle: a change to the engine that is meant to
leave behaviour alone must leave every digest below unchanged. A change
that alters behaviour on purpose updates the digest and says why.
"""

import hashlib

import pytest

from beaconkx.codec import Position
from beaconkx.config import parse_config_text
from beaconkx.protocol import DhMode, NodeConfig
from beaconkx.sim import CryptoCosts, Mobility, RouteProbe, SimConfig, Simulation, run

CRITERION_9_TEXT = """
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

CONFIGS = {
    # the determinism scene of acceptance criterion 9
    "criterion_9": parse_config_text(CRITERION_9_TEXT),
    # the static convergence scene with the halt of criterion 6, the one
    # pin at the default 512 bits; rebaselined when the prime search began
    # to confirm with 6 rounds at that size instead of 40: the same p and
    # the same records, but a new w, so new public values and keys
    "criterion_6_halt": SimConfig(
        n_vehicles=30, area=(1000.0, 1000.0), radio_range=250.0,
        speed_range=(0.0, 0.0), loss_rate=0.0,
        node_config=NodeConfig(beacon_interval=1.0), seed=2026,
        duration=12.0, halts=((7, 4.2),)),
    # mobile, lossy, one group per node, simulated crypto costs;
    # rebaselined when the end of a secret computation became its own
    # event, so an ACK's reach, its loss draws and the ack_tx and
    # key_established positions are those of the ACK's own instant
    "pernode_costs": SimConfig(
        n_vehicles=8, area=(400.0, 400.0), radio_range=250.0,
        speed_range=(5.0, 15.0), mobility=Mobility.CONSTANT_VELOCITY,
        duration=9.0, loss_rate=0.2, seed=5, dh_bits=64,
        dh_mode=DhMode.PER_NODE_PARAMS, crypto_costs=CryptoCosts()),
    # sparse and moving: about three neighbours each in a 2 km square
    "sparse_fleet": SimConfig(
        n_vehicles=60, area=(2000.0, 2000.0), radio_range=250.0,
        speed_range=(5.0, 15.0), mobility=Mobility.CONSTANT_VELOCITY,
        duration=6.0, loss_rate=0.1, seed=11, dh_bits=64),
    # adaptive beaconing, which reads the neighbour table's size, with
    # moving vehicles, loss, one halt and one probe
    "adaptive_halt_probe": SimConfig(
        n_vehicles=16, area=(500.0, 500.0), radio_range=250.0,
        speed_range=(5.0, 15.0), mobility=Mobility.CONSTANT_VELOCITY,
        duration=8.0, loss_rate=0.15, seed=13, dh_bits=64,
        node_config=NodeConfig(adaptive=True, target_degree=4, adapt_gain=0.5,
                               interval_min=0.4, interval_max=2.5),
        halts=((5, 3.5),),
        probes=(RouteProbe(at=6.0, src=1, dest=Position(480.0, 480.0)),)),
    # one shared group with simulated crypto costs, fast vehicles and
    # loss: secrets long enough for a pair to part before the ACK leaves
    "global_costs": SimConfig(
        n_vehicles=12, area=(300.0, 300.0), radio_range=100.0,
        speed_range=(20.0, 20.0), mobility=Mobility.CONSTANT_VELOCITY,
        duration=8.0, loss_rate=0.1, seed=7, dh_bits=64,
        crypto_costs=CryptoCosts(0.1, 0.5, 0.5)),
    # static, lossy, one halt, and no propagation delay: every delivery
    # lands at its send instant, so an initiator's zero-cost secret ends
    # at its ACK's delivery, while a responder's takes 0.2 s; pinned
    # before zero-time secrets finished in place instead of on the heap
    "zero_delay_halt": SimConfig(
        n_vehicles=7, area=(400.0, 400.0), radio_range=250.0,
        speed_range=(0.0, 0.0), duration=8.0, loss_rate=0.2, prop_delay=0.0,
        seed=17, dh_bits=64, crypto_costs=CryptoCosts(0.0, 0.0, 0.2),
        halts=((3, 4.0),)),
}

DIGESTS = {
    "criterion_9":
        "cc197b6fbf3f3a1ddd08a4a7516570343dd9995ec91a372bb15a0413f12efaf3",
    "criterion_6_halt":
        "8748da182d634748a8304cf47cdb4620ac183dd9b96462dad133fbc05ec1fa2f",
    "pernode_costs":
        "eeb0a7bd6700f70c810e970ebe5d75cc1bdb89d61974594da90fd4a8bb85b212",
    "sparse_fleet":
        "f1dccce61b1775130d679103704be5fd49f6f1e58a4e630ae0fb174b93cdabab",
    "adaptive_halt_probe":
        "eb4c7daeb37941a170e9ec7960fd446fb7137f6bccdfe3b821e983ba31568ce5",
    "global_costs":
        "0fb76f4b83b7cd3b9a1abc6b4187f0d5ce0dea6f286091541a93de6c20ed6e22",
    "zero_delay_halt":
        "2f089680b74db8182b78264424d336a9f56afbadfe0e217108cd837f52929463",
}


def run_digest(config: SimConfig) -> str:
    trace, metrics = run(config)
    text = trace.to_jsonl() + metrics.to_json()
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_trace_and_metrics_digest_pinned(name):
    assert run_digest(CONFIGS[name]) == DIGESTS[name]


def test_every_group_has_its_table_when_set_up_ends():
    # The pinned runs cover the fixed-base table: each vehicle's key pair
    # is made in set-up, from its group's table, whether the group is
    # shared or its own.
    for name, config in CONFIGS.items():
        sim = Simulation(config)
        assert all(vars(node.dh_params).get("_comb") for node in sim.nodes.values()), name
