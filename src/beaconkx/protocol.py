"""Per-vehicle protocol state: beaconing, neighbor table, key exchange.

Each node periodically broadcasts a beacon carrying its identifier, its
position and its public key-agreement value. Hearing a beacon serves two
purposes at once: the receiver refreshes (or creates) its neighbor-table
entry for the sender, and completes the responder side of the key
exchange, answering with a unicast ACK that carries its own public value
so the sender can finish the initiator side. The whole handshake is
those two messages.

Entries that stay silent past ``expiry_multiplier`` effective beacon
intervals are dropped. Forwarding decisions use the greedy geographic
rule over the live table: pick the neighbor strictly closest to the
destination, or give up at a local maximum. An entry's handshake is
complete exactly when it holds a key; a rejected public value leaves it
with none.

Two key-agreement deployments are supported:

* ``DhMode.GLOBAL_PARAMS`` - every node shares one (p, w) group; beacons
  are version 1 and carry only the sender's public value.
* ``DhMode.PER_NODE_PARAMS`` - each node has its own group, drawn by
  the fleet builder; beacons are version 2 and carry (p, w, public) so
  that the responder can compute inside the initiator's group.

A responder answers with its own key pair only inside its own group; in
any other it uses a pair kept per peer, whatever its mode, so both ends
derive one key. ACKs always carry a bare public value.

Keys derived from shared secrets live in a :class:`SecretMemo` that a
simulation shares across its fleet, keyed by the inputs of the
exponentiation ``(p, own private exponent, peer public value)``. Both
ends of an exchange need the same value, since ``Y^x = X^y`` when
``X = w^x`` and ``Y = w^y``, so the end that computes it first also
stores it under the other end's inputs. That mirror entry is written
only for key pairs the program generated itself, in one group, and only
when the other end's peer value passes the range check; anything else
is computed, and checked, on every arrival.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum

from .codec import (
    VERSION_PARAM_TRIPLE,
    VERSION_SINGLE,
    BeaconPacket,
    PacketType,
    Position,
    decode_param_triple,
    encode_param_triple,
    int_to_magnitude,
    magnitude_to_int,
    quantize_position,
)
from .dh import (
    DhError,
    DhKeyPair,
    DhParams,
    compute_shared_secret,
    derive_symmetric_key,
    generate_keypair,
)


class ConfigError(ValueError):
    """Configuration rejected before any event runs; names the key at fault."""


def _check_number(key: str, value: float, positive: bool = False) -> None:
    """Reject NaN, infinities and negatives, and zero when ``positive``."""
    if not math.isfinite(value) or value < 0 or (positive and value == 0):
        need = "positive" if positive else "non-negative"
        raise ConfigError(f"{key} must be finite and {need}, got {value!r}")


class DhMode(Enum):
    GLOBAL_PARAMS = "global"
    PER_NODE_PARAMS = "per_node"


def distance(a: Position, b: Position) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


@dataclass
class NeighborEntry:
    node_id: int
    position: Position
    last_seen: float
    key: bytes | None = None


class SecretMemo:
    """Keys derived from shared secrets, by the exponentiation's inputs.

    ``register`` records each key pair the program generates under
    ``(p, w, public)``. ``key`` returns the key of ``pow(peer_public,
    own private, p)``, computing it on a miss; when both public values
    are registered in the exchange's group, it also stores the key under
    the peer's inputs ``(p, y, X)``, because ``X^y = Y^x``. The peer's
    range check on ``X`` is applied before that, so the mirror entry
    answers exactly as ``compute_shared_secret`` would.
    """

    def __init__(self) -> None:
        self._private: dict[tuple[int, int, int], int] = {}
        self._keys: dict[tuple[int, int, int], bytes] = {}

    def register(self, params: DhParams, keypair: DhKeyPair) -> None:
        self._private[(params.p, params.w, keypair.public_value)] = (
            keypair.private_exponent)

    def key(self, params: DhParams, own: DhKeyPair, peer_public: int) -> bytes | None:
        """The exchange's key, or None when ``peer_public`` is rejected.

        A rejected value is never remembered, so it is checked again on
        every arrival.
        """
        p, x, own_public = params.p, own.private_exponent, own.public_value
        key = self._keys.get((p, x, peer_public))
        if key is not None:
            return key
        try:
            secret = compute_shared_secret(params, x, peer_public)
        except DhError:
            return None
        key = self._keys[(p, x, peer_public)] = derive_symmetric_key(secret)
        private = self._private
        y = private.get((p, params.w, peer_public))
        if (y is not None and private.get((p, params.w, own_public)) == x
                and 2 <= own_public <= p - 2):
            self._keys[(p, y, own_public)] = key
        return key


@dataclass(frozen=True)
class NodeConfig:
    """Timing knobs for beaconing and expiry.

    With ``adaptive`` enabled the interval stretches with local density:
    ``B * (1 + adapt_gain * (degree - target_degree) / target_degree)``,
    clamped to ``[interval_min, interval_max]``. Sparse neighborhoods
    thus beacon at least as often as the base rate, crowded ones back
    off. Expiry timeout is ``expiry_multiplier`` effective intervals,
    which tolerates a run of lost beacons before declaring a neighbor
    gone.
    """

    beacon_interval: float = 1.0
    expiry_multiplier: float = 4.5
    adaptive: bool = False
    target_degree: int = 8
    adapt_gain: float = 0.5
    interval_min: float = 0.1
    interval_max: float = 10.0

    def __post_init__(self) -> None:
        for name in ("beacon_interval", "expiry_multiplier", "interval_min",
                     "interval_max"):
            _check_number(f"node.{name}", getattr(self, name), positive=True)
        _check_number("node.adapt_gain", self.adapt_gain)
        if self.expiry_multiplier <= 1:
            raise ConfigError(
                f"node.expiry_multiplier must be > 1, got {self.expiry_multiplier!r}")
        if self.target_degree < 1:
            raise ConfigError(
                f"node.target_degree must be >= 1, got {self.target_degree!r}")
        if not self.interval_min <= self.beacon_interval <= self.interval_max:
            raise ConfigError(
                "need node.interval_min <= node.beacon_interval <= "
                f"node.interval_max, got {self.interval_min!r}, "
                f"{self.beacon_interval!r}, {self.interval_max!r}")


@dataclass
class NodeState:
    """Everything one vehicle knows: identity, position, keys, neighbors."""

    node_id: int
    own_position: Position
    config: NodeConfig
    dh_mode: DhMode
    dh_params: DhParams
    keypair: DhKeyPair
    rng: random.Random
    neighbors: dict[int, NeighborEntry] = field(default_factory=dict)
    next_beacon_at: float = 0.0
    # Responder key pairs generated inside initiators' groups other than
    # our own. Kept outside the table so a re-appearing neighbor re-derives
    # the same key; keyed by peer id.
    _responder_keys: dict[int, tuple[DhParams, DhKeyPair]] = field(
        default_factory=dict, repr=False)
    # Keys of the exchanges done so far; a simulation shares one memo
    # across its fleet. In per-node mode an entry alternates between the
    # exchange in our group and the one in the peer's; each flip is a
    # lookup here.
    memo: SecretMemo = field(default_factory=SecretMemo, repr=False)

    # ------------------------------------------------------------------
    # beaconing

    def effective_beacon_interval(self) -> float:
        cfg = self.config
        if not cfg.adaptive:
            return cfg.beacon_interval
        degree = len(self.neighbors)
        factor = 1.0 + cfg.adapt_gain * (degree - cfg.target_degree) / cfg.target_degree
        interval = cfg.beacon_interval * factor
        return min(max(interval, cfg.interval_min), cfg.interval_max)

    def build_beacon(self) -> BeaconPacket:
        if self.dh_mode is DhMode.PER_NODE_PARAMS:
            version = VERSION_PARAM_TRIPLE
            payload = encode_param_triple(
                self.dh_params.p, self.dh_params.w, self.keypair.public_value)
        else:
            version = VERSION_SINGLE
            payload = int_to_magnitude(self.keypair.public_value)
        return BeaconPacket(
            identifiant=self.node_id,
            version=version,
            ptype=PacketType.BEACON,
            src_pos=quantize_position(self.own_position),
            public_value=payload,
        )

    def on_timer_beacon(self, now: float) -> BeaconPacket:
        """Periodic timer: return the one beacon to broadcast.

        The caller expires stale neighbors first (``expire_neighbors``),
        once per timer, so that every drop can be recorded. Advances
        ``next_beacon_at`` by the effective interval.
        """
        beacon = self.build_beacon()
        self.next_beacon_at = now + self.effective_beacon_interval()
        return beacon

    # ------------------------------------------------------------------
    # receive paths

    def on_receive_beacon(self, pkt: BeaconPacket, now: float) -> BeaconPacket | None:
        """Responder side: refresh the sender's entry, key up, ACK back.

        The returned ACK is addressed to the beacon's sender (unicast;
        addressing is a delivery-layer concern, the wire only names the
        ACK's own sender). A beacon whose public value is unusable still
        refreshes position and freshness, but the entry loses its key;
        the ACK is suppressed only when the sender's group parameters
        themselves are unusable, because then there is no group to
        answer in.
        """
        if pkt.identifiant == self.node_id:
            return None

        params, peer_public = self._parse_exchange(pkt)
        entry = self._refresh_entry(pkt.identifiant, pkt.src_pos, now)

        if params is None:
            entry.key = None
            return None

        responder = (self.keypair if params is self.dh_params
                     else self._responder_keypair(pkt.identifiant, params))
        entry.key = self.memo.key(params, responder, peer_public)

        return BeaconPacket(
            identifiant=self.node_id,
            version=VERSION_SINGLE,
            ptype=PacketType.ACK,
            src_pos=quantize_position(self.own_position),
            public_value=int_to_magnitude(responder.public_value),
        )

    def on_receive_ack(self, pkt: BeaconPacket, now: float) -> None:
        """Initiator side: the peer answered our beacon; derive the key.

        The exchange is exactly two messages, so nothing is sent back.
        Acks from senders we never heard of still create an entry - our
        beacon may simply have predated their table.
        """
        if pkt.identifiant == self.node_id:
            return
        entry = self._refresh_entry(pkt.identifiant, pkt.src_pos, now)
        # The ack answers in our own group.
        params, peer_public = self._parse_exchange(pkt)
        entry.key = None if params is None else self.memo.key(
            params, self.keypair, peer_public)

    # ------------------------------------------------------------------
    # table maintenance and forwarding

    def expire_neighbors(self, now: float) -> list[int]:
        """Drop entries silent for more than the expiry timeout."""
        timeout = self.config.expiry_multiplier * self.effective_beacon_interval()
        expired = sorted(
            node_id for node_id, entry in self.neighbors.items()
            if now - entry.last_seen > timeout
        )
        for node_id in expired:
            del self.neighbors[node_id]
        return expired

    def greedy_next_hop(self, dest: Position, keyed_only: bool = False) -> int | None:
        """Neighbor closest to ``dest``, if strictly closer than we are.

        Returns None at a local maximum (no neighbor makes progress).
        Ties break toward the smallest node id. With ``keyed_only`` the
        candidate set shrinks to neighbors holding a key.
        """
        best_id: int | None = None
        best_dist = distance(self.own_position, dest)
        for node_id in sorted(self.neighbors):
            entry = self.neighbors[node_id]
            if keyed_only and entry.key is None:
                continue
            d = distance(entry.position, dest)
            if d < best_dist:
                best_id = node_id
                best_dist = d
        return best_id

    # ------------------------------------------------------------------
    # internals

    def _parse_exchange(self, pkt: BeaconPacket) -> tuple[DhParams | None, int | None]:
        """Extract the governing group and the sender's public value.

        Version-2 beacons name their own group; anything else is read
        against our group. Returns (None, None) when the payload names
        no usable group or value.
        """
        if pkt.version == VERSION_PARAM_TRIPLE and pkt.ptype is PacketType.BEACON:
            try:
                p, w, public = decode_param_triple(pkt.public_value)
                return DhParams(p=p, w=w), public
            except ValueError:
                return None, None
        try:
            return self.dh_params, magnitude_to_int(pkt.public_value)
        except ValueError:
            return None, None

    def _refresh_entry(self, node_id: int, position: Position, now: float) -> NeighborEntry:
        entry = self.neighbors.get(node_id)
        if entry is None:
            entry = NeighborEntry(node_id=node_id, position=position, last_seen=now)
            self.neighbors[node_id] = entry
        else:
            entry.position = position
            entry.last_seen = now
        return entry

    def _responder_keypair(self, peer_id: int, params: DhParams) -> DhKeyPair:
        """Key pair we use inside ``peer_id``'s group; cached per peer."""
        cached = self._responder_keys.get(peer_id)
        if cached is not None and cached[0] == params:
            return cached[1]
        keypair = generate_keypair(params, self.rng)
        self.memo.register(params, keypair)
        self._responder_keys[peer_id] = (params, keypair)
        return keypair


def make_node(node_id: int, position: Position, config: NodeConfig,
              dh_mode: DhMode, rng: random.Random, params: DhParams,
              memo: SecretMemo | None = None) -> NodeState:
    """Stand up a node in the group ``params`` with a key pair drawn from ``rng``.

    The caller picks the group: one shared by the fleet in global mode,
    the node's own in per-node mode. Nodes given one ``memo`` share their
    exchanges' keys; without one the node gets its own.
    """
    keypair = generate_keypair(params, rng)
    memo = SecretMemo() if memo is None else memo
    memo.register(params, keypair)
    return NodeState(
        node_id=node_id,
        own_position=position,
        config=config,
        dh_mode=dh_mode,
        dh_params=params,
        keypair=keypair,
        rng=rng,
        memo=memo,
    )
