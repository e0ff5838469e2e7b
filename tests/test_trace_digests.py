"""Pinned SHA-256 digests of the trace and metrics of five fixed runs.

These are the refactor oracle: a change to the engine that is meant to
leave behaviour alone must leave every digest below unchanged. A change
that alters behaviour on purpose updates the digest and says why.
"""

import hashlib

import pytest

from beaconkx.codec import Position
from beaconkx.config import parse_config_text
from beaconkx.protocol import DhMode, NodeConfig
from beaconkx.sim import CryptoCosts, Mobility, RouteProbe, SimConfig, run

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
    # the static convergence scene with the halt of criterion 6
    "criterion_6_halt": SimConfig(
        n_vehicles=30, area=(1000.0, 1000.0), radio_range=250.0,
        speed_range=(0.0, 0.0), loss_rate=0.0,
        node_config=NodeConfig(beacon_interval=1.0), seed=2026,
        duration=12.0, halts=((7, 4.2),)),
    # mobile, lossy, one group per node, simulated crypto costs
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
}

DIGESTS = {
    "criterion_9":
        "cc197b6fbf3f3a1ddd08a4a7516570343dd9995ec91a372bb15a0413f12efaf3",
    "criterion_6_halt":
        "1e2669a32a63d6da22453e343a5429a85c4faa123045ace97bb4b756fde6dfde",
    "pernode_costs":
        "aba185ccfc9fee91c7c507f8392259521eb4537218127d80bf7fb7d6bfac76e6",
    "sparse_fleet":
        "f1dccce61b1775130d679103704be5fd49f6f1e58a4e630ae0fb174b93cdabab",
    "adaptive_halt_probe":
        "eb4c7daeb37941a170e9ec7960fd446fb7137f6bccdfe3b821e983ba31568ce5",
}


def run_digest(config: SimConfig) -> str:
    trace, metrics = run(config)
    text = trace.to_jsonl() + metrics.to_json()
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_trace_and_metrics_digest_pinned(name):
    assert run_digest(CONFIGS[name]) == DIGESTS[name]
