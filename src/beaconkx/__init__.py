"""Beaconing with key exchange for vehicular ad hoc networks.

Four layers, bottom up: multi-precision Diffie-Hellman (:mod:`.dh`), the
bit-exact beacon/ack wire codec (:mod:`.codec`), the per-vehicle protocol
state machine with neighbor expiry and greedy forwarding
(:mod:`.protocol`), and a deterministic discrete-event simulator with
trace and metrics output (:mod:`.sim`, :mod:`.trace`, :mod:`.metrics`).
The :mod:`.cli` module exposes it all as the ``beaconkx`` command.
"""

from .codec import (
    BeaconPacket,
    CodecError,
    DecodeError,
    EncodeError,
    PacketType,
    Position,
    decode_packet,
    encode_packet,
)
from .dh import (
    DhError,
    DhKeyPair,
    DhParams,
    compute_shared_secret,
    derive_symmetric_key,
    generate_dh_params,
    generate_keypair,
    is_probable_prime,
    mod_exp,
)
from .metrics import Metrics, compute_metrics
from .protocol import (
    DhMode,
    NeighborEntry,
    NodeConfig,
    NodeState,
    make_node,
)
from .sim import (
    ConfigError,
    CryptoCosts,
    Mobility,
    RouteOutcome,
    RouteProbe,
    RouteResult,
    SimConfig,
    Simulation,
    deliver_in_range,
    mobility_update,
    route_probe,
    run,
)
from .trace import Trace, TraceRecord

__all__ = [
    "BeaconPacket", "CodecError", "DecodeError", "EncodeError", "PacketType",
    "Position", "decode_packet", "encode_packet",
    "DhError", "DhKeyPair", "DhParams",
    "compute_shared_secret", "derive_symmetric_key", "generate_dh_params",
    "generate_keypair", "is_probable_prime", "mod_exp",
    "Metrics", "compute_metrics",
    "DhMode", "NeighborEntry", "NodeConfig", "NodeState", "make_node",
    "ConfigError", "CryptoCosts", "Mobility", "RouteOutcome", "RouteProbe",
    "RouteResult", "SimConfig", "Simulation", "deliver_in_range",
    "mobility_update", "route_probe", "run",
    "Trace", "TraceRecord",
]

__version__ = "0.1.0"
