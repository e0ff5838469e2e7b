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

Groups and keys live in a :class:`SecretMemo` that a simulation shares
across its fleet. It holds one group object per ``(p, w)``, so a beacon
that names a group reads it from there, and every key pair and secret
in a group uses that object's fixed-base table. Every key pair the
program draws comes from the memo, which records its exponent, and an
exchange's key is kept under the group and both exponents, ``(p, w,
min(x, y), max(x, y))``: both ends need the same value, since ``Y^x =
X^y`` when ``X = w^x`` and ``Y = w^y``, so the end that computes it
first serves the other and every repeat. Knowing ``y``, the memo
computes that value from the group's table, as ``w^(x*y mod (p-1))``.
A public value the memo did not draw is computed, and checked, on
every arrival. The memo also reads each distinct payload once; one that
fails to read is read, and rejected, on every arrival.
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
    DecodeError,
    PacketType,
    Position,
    encode_param_triple,
    int_to_magnitude,
    quantize_position,
    read_payload,
)
from .dh import (
    DhError,
    DhKeyPair,
    DhParams,
    check_group,
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


@dataclass
class NeighborEntry:
    position: Position
    last_seen: float
    key: bytes | None = None


class SecretMemo:
    """The groups, key pairs and exchange keys a fleet shares.

    ``group`` hands out one ``DhParams`` object per ``(p, w)``, so one
    fixed-base table serves every key pair and secret in a group.
    ``keypair`` draws a key pair and records its exponent under ``(p, w,
    public)``, so every value recorded is a real ``w^y`` in ``[2, p-2]``.
    ``key`` returns the key of ``pow(peer_public, own private, p)``. When
    the memo drew ``peer_public``, the key is the exchange's, kept under
    ``(p, w)`` and both exponents and computed once from the group's
    table; any other value is computed, and checked, on every arrival.
    ``read`` returns a payload's ``read_payload`` fields, kept under the
    version, packet type and bytes it was read from; a payload that fails
    to read is not kept, so it is read, and rejected with the same
    message, on every arrival.
    """

    def __init__(self) -> None:
        self._groups: dict[tuple[int, int], DhParams] = {}
        self._private: dict[tuple[int, int, int], int] = {}
        self._keys: dict[tuple[int, int, int, int], bytes] = {}
        self._fields: dict[tuple[int, int, bytes], tuple[int, ...]] = {}

    def group(self, p: int, w: int) -> DhParams:
        """The fleet's object for the group ``(p, w)``, made on first use.

        Raises:
            DhError: if ``w`` is outside ``[2, p)``, or a new group fails
                ``check_group``: no key pair could be drawn in it.
        """
        group = self._groups.get((p, w))
        if group is None:
            group = self._groups[p, w] = check_group(DhParams(p, w))
        return group

    def keypair(self, params: DhParams, rng: random.Random) -> DhKeyPair:
        """A key pair drawn from ``rng`` in ``params``, its exponent recorded."""
        keypair = generate_keypair(params, rng)
        self._private[params.p, params.w, keypair.public_value] = (
            keypair.private_exponent)
        return keypair

    def key(self, params: DhParams, own: DhKeyPair, peer_public: int) -> bytes | None:
        """The exchange's key, or None when ``peer_public`` is rejected."""
        p, w, x = params.p, params.w, own.private_exponent
        y = self._private.get((p, w, peer_public))
        slot = None if y is None else (p, w, x, y) if x < y else (p, w, y, x)
        key = self._keys.get(slot)
        if key is None:
            try:
                key = derive_symmetric_key(
                    compute_shared_secret(params, x, peer_public, y))
            except DhError:
                return None
            if slot is not None:
                self._keys[slot] = key
        return key

    def read(self, version: int, ptype: int, payload: bytes) -> tuple[int, ...]:
        """``read_payload(version, ptype, payload)``, read once per input.

        Raises:
            DecodeError: as ``read_payload``, on every call with the payload.
        """
        slot = (version, ptype, payload)
        fields = self._fields.get(slot)
        if fields is None:
            fields = self._fields[slot] = read_payload(version, ptype, payload)
        return fields


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
    """Everything one vehicle knows: identity, position, keys, neighbors.

    A beacon is answered with ``keypair`` when the group it names is
    ``dh_params``, and otherwise with a pair drawn for that peer in the
    peer's group. Nodes made by :func:`make_node` with one memo share one
    object per group, so a version-2 beacon whose group equals the
    receiver's own, as when two per-node groups are drawn equal, is
    answered with ``keypair`` too.

    The node keeps the last beacon and the last ACK it built, each with
    the ``own_position`` and the key pair it was built from, and sends it
    again while both are the same objects. A mobility tick assigns a new
    ``own_position``, and a responder answering in another group uses
    another pair, so either builds a new packet. The node's id, mode and
    group are fixed for its life.
    """

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
    # Groups and the keys of the exchanges done so far; a simulation
    # shares one memo across its fleet. In per-node mode an entry
    # alternates between the exchange in our group and the one in the
    # peer's; each flip is a lookup here.
    memo: SecretMemo = field(default_factory=SecretMemo, repr=False)
    # The last beacon and the last ACK built, each as (own_position, key
    # pair, packet); keyed by packet type.
    _kept: dict[PacketType, tuple[Position, DhKeyPair, BeaconPacket]] = field(
        default_factory=dict, repr=False, compare=False)

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

    def on_timer_beacon(self, now: float) -> BeaconPacket:
        """Periodic timer: return the one beacon to broadcast.

        The caller expires stale neighbors first (``expire_neighbors``),
        once per timer, so that every drop can be recorded. Advances
        ``next_beacon_at`` by the effective interval.
        """
        beacon = self._packet(PacketType.BEACON, self.keypair)
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
        return self._packet(PacketType.ACK, responder)

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
        best_dist = math.dist(self.own_position, dest)
        for node_id in sorted(self.neighbors):
            entry = self.neighbors[node_id]
            if keyed_only and entry.key is None:
                continue
            d = math.dist(entry.position, dest)
            if d < best_dist:
                best_id = node_id
                best_dist = d
        return best_id

    # ------------------------------------------------------------------
    # internals

    def _parse_exchange(self, pkt: BeaconPacket) -> tuple[DhParams | None, int | None]:
        """Extract the governing group and the sender's public value.

        A payload that carries a group names it; anything else is read
        against our group. Returns (None, None) when the payload names
        no usable group or value.
        """
        try:
            *group, public = self.memo.read(pkt.version, pkt.ptype, pkt.public_value)
            return (self.memo.group(*group) if group else self.dh_params), public
        except (DecodeError, DhError):
            return None, None

    def _packet(self, ptype: PacketType, keypair: DhKeyPair) -> BeaconPacket:
        """The packet of type ``ptype`` from ``own_position`` carrying
        ``keypair``: the kept one while both are the objects it was built
        from. Only a per-node beacon carries its group."""
        position = self.own_position
        kept = self._kept.get(ptype)
        if kept is not None and kept[0] is position and kept[1] is keypair:
            return kept[2]
        if ptype is PacketType.BEACON and self.dh_mode is DhMode.PER_NODE_PARAMS:
            version = VERSION_PARAM_TRIPLE
            payload = encode_param_triple(
                self.dh_params.p, self.dh_params.w, keypair.public_value)
        else:
            version = VERSION_SINGLE
            payload = int_to_magnitude(keypair.public_value)
        packet = BeaconPacket(
            identifiant=self.node_id,
            version=version,
            ptype=ptype,
            src_pos=quantize_position(position),
            public_value=payload,
        )
        self._kept[ptype] = (position, keypair, packet)
        return packet

    def _refresh_entry(self, node_id: int, position: Position, now: float) -> NeighborEntry:
        entry = self.neighbors.get(node_id)
        if entry is None:
            entry = NeighborEntry(position=position, last_seen=now)
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
        keypair = self.memo.keypair(params, self.rng)
        self._responder_keys[peer_id] = (params, keypair)
        return keypair


def make_node(node_id: int, position: Position, config: NodeConfig,
              dh_mode: DhMode, rng: random.Random, params: DhParams,
              memo: SecretMemo | None = None) -> NodeState:
    """Stand up a node in the group ``params`` with a key pair drawn from ``rng``.

    The caller picks the group: one shared by the fleet in global mode,
    the node's own in per-node mode. Nodes given one ``memo`` share one
    object per group and their exchanges' keys; without one the node
    gets its own.
    """
    memo = SecretMemo() if memo is None else memo
    params = memo.group(params.p, params.w)
    return NodeState(
        node_id=node_id,
        own_position=position,
        config=config,
        dh_mode=dh_mode,
        dh_params=params,
        keypair=memo.keypair(params, rng),
        rng=rng,
        memo=memo,
    )
