"""Deterministic discrete-event simulation of beaconing vehicles.

N vehicles move on a bounded plane and run the beaconing/key-exchange
protocol over a unit-disk radio: a transmission reaches exactly the
nodes within ``radio_range`` (closed disk - distance equal to the range
still delivers), each candidate independently subject to the configured
loss probability. Propagation adds a fixed delay so that send and
receive instants are distinct and ordering is well defined.

The radio's view of the fleet is kept up to date rather than rebuilt per
send: each node's ``own_position`` is its vehicle's current position, and
``Simulation`` buckets the vehicles into a cell grid one radio range wide
(``grid.CellGrid``), both written at set-up and on each mobility tick
only. A beacon's candidate receivers are the live nodes in the 3 x 3
block of cells around its sender; an ACK's is its live addressee.
Liveness is checked per candidate at the send instant, which is not
monotone in event order: with crypto costs on, an ACK leaves at the end
of the responder's secret computation, after the delivery that prompted
it. A node that halts inside that window records no key and sends no
ACK. The engine neither encodes nor decodes: every delivery carries the
sender's packet, whose ``packet_len`` is its length on the wire, and the
packet equals the decoding of its encoding, since the protocol rounds
positions to singles, as the wire does.

The nodes share one ``protocol.SecretMemo``, so the two ends of a key
exchange pay for one exponentiation between them.

Everything is driven by one event heap ordered by
``(time, kind, node, insertion sequence)``; the loop runs every event up
to and including ``duration`` and leaves later ones unrun. Every random
draw comes from named ``random.Random`` streams derived from the config
seed, so a config maps to exactly one trace, byte for byte.

Optional simulated crypto costs decouple handshake timing from host
speed: when enabled, a node's first beacon is deferred by the parameter
generation cost, and each side's shared-secret computation shifts its
externally visible effects (key establishment, the ACK) by the
configured amount. The default constants model a 512-bit exchange on
2006-era hardware, where parameter generation dominates at ~3.5 s and
the whole two-message handshake lands around 3.6 s.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field, replace
from enum import Enum, IntEnum
from operator import attrgetter
from typing import Mapping

from .codec import BeaconPacket, PacketType, Position
from .dh import MAX_MODULUS_BITS, MIN_MODULUS_BITS, generate_dh_params
from .grid import CellGrid, pairs_in_range
from .metrics import SAMPLE_PERIOD, Metrics, compute_metrics
from .protocol import (ConfigError, DhMode, NodeConfig, NodeState, SecretMemo,
                       _check_number, distance, make_node)
from .trace import (
    EV_ACK_RX,
    EV_ACK_TX,
    EV_BEACON_RX,
    EV_BEACON_TX,
    EV_KEY_ESTABLISHED,
    EV_NEIGHBOR_EXPIRED,
    EV_ROUTE_HOP,
    EV_ROUTE_LOCAL_MAX,
    Trace,
    TraceRecord,
)

MOBILITY_TICK_INTERVAL = 0.1
# Most per-vehicle timer events (beacon timers plus mobility updates) a
# config may ask for; past it a run would not end in useful time.
MAX_TIMER_EVENTS = 10**7
# Most vehicles a config may ask for: set-up builds every one of them
# before the first event, however short the run.
MAX_VEHICLES = 10**5
# Most neighbor-table samples, one per SAMPLE_PERIOD, that the metrics
# replay may take, however few events the run has.
MAX_SAMPLES = 10**4
# Most set-up a config may ask for, in 512-bit prime searches (about
# 0.06 s each on one Xeon core): one search per group, and one group per
# vehicle in per-node mode, each weighted by (dh_bits / 512) ** 3.5, the
# growth timed from 512 to 2048 bits. Past it set-up alone takes minutes.
MAX_PRIME_SEARCHES = 2000


class Mobility(Enum):
    CONSTANT_VELOCITY = "constant_velocity"
    RANDOM_WAYPOINT = "random_waypoint"


class EventKind(IntEnum):
    # Numeric order is the tie-break order for simultaneous events.
    BEACON_TIMER = 0
    PACKET_DELIVERY = 1
    MOBILITY_TICK = 2
    ROUTE_PROBE = 3


@dataclass(frozen=True)
class CryptoCosts:
    """Simulated durations (seconds) charged to key-agreement steps.

    Defaults reproduce the reference 512-bit measurements: 3509800629 ns
    to generate parameters and the public value, 49069788 ns for the
    initiator's secret, 36127233 ns for the responder's.
    """

    param_gen: float = 3.509800629
    sender_secret: float = 0.049069788
    receiver_secret: float = 0.036127233

    def __post_init__(self) -> None:
        for name in ("param_gen", "sender_secret", "receiver_secret"):
            _check_number(f"sim.cost_{name}", getattr(self, name))


@dataclass(frozen=True)
class RouteProbe:
    """Ask at time ``at``: where would greedy forwarding from ``src`` go?"""

    at: float
    src: int
    dest: Position


class RouteOutcome(Enum):
    REACHED = "reached"        # stopped at a node no other node beats
    LOCAL_MAX = "local_max"    # stuck: someone closer exists, unreachable greedily
    HOP_LIMIT = "hop_limit"    # loop guard tripped


@dataclass(frozen=True)
class RouteResult:
    outcome: RouteOutcome
    hops: tuple[int, ...]

    @property
    def final_node(self) -> int:
        return self.hops[-1]


@dataclass(frozen=True)
class SimConfig:
    n_vehicles: int
    area: tuple[float, float] = (1000.0, 1000.0)
    radio_range: float = 250.0
    speed_range: tuple[float, float] = (0.0, 0.0)
    mobility: Mobility = Mobility.CONSTANT_VELOCITY
    duration: float = 10.0
    loss_rate: float = 0.0
    prop_delay: float = 0.001
    seed: int = 1
    node_config: NodeConfig = field(default_factory=NodeConfig)
    dh_bits: int = 512
    dh_mode: DhMode = DhMode.GLOBAL_PARAMS
    crypto_costs: CryptoCosts | None = None
    # Explicit initial positions (length n_vehicles) instead of uniform
    # random placement; node ids are 1-based and map to list order.
    placements: tuple[tuple[float, float], ...] | None = None
    # (node_id, time): the node falls silent and deaf from that instant.
    halts: tuple[tuple[int, float], ...] = ()
    probes: tuple[RouteProbe, ...] = ()

    def __post_init__(self) -> None:
        """Raise :class:`ConfigError` naming the config key at fault."""
        if not 1 <= self.n_vehicles <= MAX_VEHICLES:
            raise ConfigError(
                f"sim.n_vehicles must be in [1, {MAX_VEHICLES}], got {self.n_vehicles}")
        if not MIN_MODULUS_BITS <= self.dh_bits <= MAX_MODULUS_BITS:
            raise ConfigError(
                f"sim.dh_bits must be in [{MIN_MODULUS_BITS}, {MAX_MODULUS_BITS}], "
                f"got {self.dh_bits}")
        groups = self.n_vehicles if self.dh_mode is DhMode.PER_NODE_PARAMS else 1
        searches = groups * (self.dh_bits / 512) ** 3.5
        if searches > MAX_PRIME_SEARCHES:
            raise ConfigError(
                f"sim.dh_bits {self.dh_bits} in {groups} groups needs set-up worth "
                f"{searches:.0f} 512-bit prime searches, more than {MAX_PRIME_SEARCHES}")
        _check_number("sim.area_width", self.area[0], positive=True)
        _check_number("sim.area_height", self.area[1], positive=True)
        _check_number("sim.radio_range", self.radio_range, positive=True)
        _check_number("sim.duration", self.duration, positive=True)
        if self.duration / SAMPLE_PERIOD > MAX_SAMPLES:
            raise ConfigError(
                f"sim.duration {self.duration:g} needs more than {MAX_SAMPLES} "
                f"metrics samples, one every {SAMPLE_PERIOD:g} s")
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ConfigError("sim.loss_rate must be in [0, 1]")
        _check_number("sim.prop_delay", self.prop_delay)
        _check_number("sim.speed_min", self.speed_range[0])
        _check_number("sim.speed_max", self.speed_range[1])
        if self.speed_range[0] > self.speed_range[1]:
            raise ConfigError("sim.speed_min must not exceed sim.speed_max")
        # Reflection at the borders folds a step back into the area only
        # when the step starts inside it and is no longer than its side.
        moving = self.speed_range[1] > 0
        if self.speed_range[1] * MOBILITY_TICK_INTERVAL > min(self.area):
            raise ConfigError(
                f"sim.speed_max {self.speed_range[1]:g} m/s crosses the "
                f"{self.area[0]:g} x {self.area[1]:g} m area in one "
                f"{MOBILITY_TICK_INTERVAL:g}-s mobility tick")
        node = self.node_config
        period = node.interval_min if node.adaptive else node.beacon_interval
        if moving:
            period = min(period, MOBILITY_TICK_INTERVAL)
        if self.n_vehicles * self.duration / period > MAX_TIMER_EVENTS:
            raise ConfigError(
                f"sim.duration {self.duration:g} needs more than "
                f"{MAX_TIMER_EVENTS:.0e} timer events for {self.n_vehicles} "
                f"vehicles, one per vehicle every {period:g} s")
        if self.placements is not None:
            if len(self.placements) != self.n_vehicles:
                raise ConfigError(
                    f"sim.placements has {len(self.placements)} entries for "
                    f"{self.n_vehicles} vehicles")
            if not all(map(math.isfinite, (c for xy in self.placements for c in xy))):
                raise ConfigError("sim.placements must be finite")
            width, height = self.area
            if moving and not all(0 <= x <= width and 0 <= y <= height
                                  for x, y in self.placements):
                raise ConfigError("sim.placements must lie inside the area "
                                  "when vehicles move")
        ids = range(1, self.n_vehicles + 1)
        for node_id, at in self.halts:
            if node_id not in ids:
                raise ConfigError(f"sim.halts names unknown node {node_id}")
            if not 0 <= at <= self.duration:
                raise ConfigError(f"sim.halts time {at} outside the run")
        if len({node_id for node_id, _at in self.halts}) != len(self.halts):
            raise ConfigError("sim.halts names a node more than once")
        for probe in self.probes:
            if probe.src not in ids:
                raise ConfigError(f"sim.probes names unknown node {probe.src}")
            if not 0 <= probe.at <= self.duration:
                raise ConfigError(f"sim.probes time {probe.at} outside the run")
            if not (math.isfinite(probe.dest.x) and math.isfinite(probe.dest.y)):
                raise ConfigError("sim.probes destination must be finite")


@dataclass
class Vehicle:
    node_id: int
    x: float
    y: float
    vx: float = 0.0
    vy: float = 0.0
    speed: float = 0.0
    waypoint: tuple[float, float] | None = None

    @property
    def position(self) -> Position:
        return Position(self.x, self.y)


# ----------------------------------------------------------------------
# radio, mobility and oracle primitives


def deliver_in_range(positions: Mapping[int, Position], sender: int,
                     ptype: PacketType, dest: int | None, radio_range: float,
                     loss_rate: float, rng: random.Random) -> list[tuple[int, bool]]:
    """Candidate receivers of one transmission, with per-candidate loss.

    Beacons reach every node within the closed disk except the sender;
    ACKs reach only the addressed node, and only if it is in range.
    Candidates are drawn against the loss stream in node-id order so the
    drop pattern is a pure function of the rng state.
    """
    origin = positions[sender]
    if ptype is PacketType.BEACON:
        candidates = [
            node_id for node_id in sorted(positions)
            if node_id != sender and distance(origin, positions[node_id]) <= radio_range
        ]
    else:
        candidates = []
        if dest is not None and dest in positions and dest != sender:
            if distance(origin, positions[dest]) <= radio_range:
                candidates.append(dest)
    return [(node_id, rng.random() >= loss_rate) for node_id in candidates]


def mobility_update(vehicle: Vehicle, dt: float, area: tuple[float, float],
                    model: Mobility, speed_range: tuple[float, float],
                    rng: random.Random) -> None:
    """Advance one vehicle by ``dt`` seconds, staying inside the area.

    CONSTANT_VELOCITY reflects elastically at the borders: a step to
    x = width + e lands at width - e with the velocity component negated
    (and symmetrically at zero). RANDOM_WAYPOINT walks toward the
    current waypoint at the chosen speed; on arrival it stops there for
    the rest of the step and draws a fresh waypoint and speed.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    width, height = area
    if model is Mobility.CONSTANT_VELOCITY:
        x = vehicle.x + vehicle.vx * dt
        y = vehicle.y + vehicle.vy * dt
        while not 0 <= x <= width:
            if x < 0:
                x = -x
            else:
                x = 2 * width - x
            vehicle.vx = -vehicle.vx
        while not 0 <= y <= height:
            if y < 0:
                y = -y
            else:
                y = 2 * height - y
            vehicle.vy = -vehicle.vy
        vehicle.x, vehicle.y = x, y
    else:
        if vehicle.waypoint is None:
            vehicle.waypoint = (rng.uniform(0, width), rng.uniform(0, height))
            vehicle.speed = rng.uniform(*speed_range)
        wx, wy = vehicle.waypoint
        remaining = math.hypot(wx - vehicle.x, wy - vehicle.y)
        step = vehicle.speed * dt
        if step >= remaining and remaining >= 0:
            vehicle.x, vehicle.y = wx, wy
            vehicle.waypoint = (rng.uniform(0, width), rng.uniform(0, height))
            vehicle.speed = rng.uniform(*speed_range)
        elif remaining > 0:
            vehicle.x += (wx - vehicle.x) / remaining * step
            vehicle.y += (wy - vehicle.y) / remaining * step


def ground_truth_neighbors(positions: Mapping[int, Position],
                           radio_range: float) -> dict[int, set[int]]:
    """Symmetric geometric adjacency: the oracle the protocol chases."""
    adjacency: dict[int, set[int]] = {node_id: set() for node_id in positions}
    points = {node_id: (pos.x, pos.y) for node_id, pos in positions.items()}
    for a, b in pairs_in_range(points, radio_range):
        adjacency[a].add(b)
        adjacency[b].add(a)
    return adjacency


def route_probe(nodes: Mapping[int, NodeState], src: int, dest: Position,
                max_hops: int) -> RouteResult:
    """Walk greedy forwarding from ``src`` over the nodes' live tables.

    Stops when no neighbor makes strict progress: that is REACHED when
    the stuck node is (one of) the globally closest nodes to the
    destination, LOCAL_MAX otherwise. A loop guard of ``max_hops`` hops
    bounds the walk.
    """
    hops = [src]
    current = src
    for _ in range(max_hops):
        nxt = nodes[current].greedy_next_hop(dest)
        if nxt is None:
            d_here = distance(nodes[current].own_position, dest)
            d_best = min(distance(n.own_position, dest) for n in nodes.values())
            outcome = RouteOutcome.REACHED if d_here <= d_best else RouteOutcome.LOCAL_MAX
            return RouteResult(outcome=outcome, hops=tuple(hops))
        hops.append(nxt)
        current = nxt
    return RouteResult(outcome=RouteOutcome.HOP_LIMIT, hops=tuple(hops))


# ----------------------------------------------------------------------
# the engine


class Simulation:
    """One simulation run; construct, call :meth:`run`, inspect state."""

    def __init__(self, config: SimConfig) -> None:
        self.config = config
        self._costs = config.crypto_costs or CryptoCosts(0.0, 0.0, 0.0)
        self.nodes: dict[int, NodeState] = {}
        self.vehicles: dict[int, Vehicle] = {}
        # Every vehicle, halted or not, bucketed by cell at its node's
        # own_position; written at set-up and on mobility ticks.
        self._grid = CellGrid(config.radio_range)
        self.probe_results: list[RouteResult] = []
        self._trace: list[TraceRecord] = []
        self._heap: list[tuple[float, int, int, int, object]] = []
        self._seq = 0
        self._halt_at = dict(config.halts)
        self._rng_loss = random.Random(f"{config.seed}/loss")
        self._rng_move = random.Random(f"{config.seed}/move")
        self._build_fleet()
        self._schedule_initial()

    # -- construction --------------------------------------------------

    def _build_fleet(self) -> None:
        cfg = self.config
        rng_place = random.Random(f"{cfg.seed}/place")
        width, height = cfg.area
        memo = SecretMemo()
        shared_params = (generate_dh_params(cfg.dh_bits, random.Random(f"{cfg.seed}/group"))
                         if cfg.dh_mode is DhMode.GLOBAL_PARAMS else None)
        for node_id in range(1, cfg.n_vehicles + 1):
            if cfg.placements is not None:
                x, y = cfg.placements[node_id - 1]
            else:
                x, y = rng_place.uniform(0, width), rng_place.uniform(0, height)
            vehicle = Vehicle(node_id=node_id, x=x, y=y)
            if cfg.mobility is Mobility.CONSTANT_VELOCITY:
                speed = rng_place.uniform(*cfg.speed_range)
                angle = rng_place.uniform(0, 2 * math.pi)
                vehicle.vx = speed * math.cos(angle)
                vehicle.vy = speed * math.sin(angle)
            self.vehicles[node_id] = vehicle
            rng = random.Random(f"{cfg.seed}/node/{node_id}")
            self.nodes[node_id] = make_node(
                node_id=node_id,
                position=vehicle.position,
                config=cfg.node_config,
                dh_mode=cfg.dh_mode,
                rng=rng,
                params=shared_params or generate_dh_params(cfg.dh_bits, rng),
                memo=memo,
            )
        self._rebuild_grid()

    def _schedule_initial(self) -> None:
        """Queue the first mobility tick, the probes and each node's first
        beacon: a jittered instant within one interval, drawn in id order,
        that fires later by the one-time parameter-generation cost."""
        cfg = self.config
        rng_timer = random.Random(f"{cfg.seed}/timer")
        for node_id, state in self.nodes.items():
            state.next_beacon_at = rng_timer.uniform(0, cfg.node_config.beacon_interval)
            self._push(state.next_beacon_at + self._costs.param_gen,
                       EventKind.BEACON_TIMER, node_id, None)
        if cfg.speed_range[1] > 0:
            self._push(MOBILITY_TICK_INTERVAL, EventKind.MOBILITY_TICK, 0, None)
        for index, probe in enumerate(cfg.probes):
            self._push(probe.at, EventKind.ROUTE_PROBE, probe.src, (index, probe))

    def _push(self, at: float, kind: EventKind, node: int, payload: object) -> None:
        heapq.heappush(self._heap, (at, int(kind), node, self._seq, payload))
        self._seq += 1

    # -- trace helpers ---------------------------------------------------

    def _emit(self, t: float, ev: str, node: int, peer: int | None,
              extra: dict | None = None) -> None:
        if t > self.config.duration:
            return  # effect lands beyond the simulated horizon
        pos = self.nodes[node].own_position
        self._trace.append(TraceRecord(t, ev, node, peer, (pos.x, pos.y), extra or {}))

    def _halted(self, node_id: int, now: float) -> bool:
        halt = self._halt_at.get(node_id)
        return halt is not None and now >= halt

    def _rebuild_grid(self) -> None:
        self._grid.rebuild((node_id, state.own_position.x, state.own_position.y)
                           for node_id, state in self.nodes.items())

    # -- event handlers --------------------------------------------------

    def _handle_beacon_timer(self, node_id: int, now: float, _payload: None) -> None:
        if self._halted(node_id, now):
            return
        state = self.nodes[node_id]
        timer_at = state.next_beacon_at
        for expired in state.expire_neighbors(now):
            self._emit(now, EV_NEIGHBOR_EXPIRED, node_id, expired)
        beacon = state.on_timer_beacon(now)
        self._emit(now, EV_BEACON_TX, node_id, None, {
            "len": beacon.packet_len, "timer_at": timer_at, "version": beacon.version})
        self._send(now, node_id, None, beacon)
        self._push(state.next_beacon_at, EventKind.BEACON_TIMER, node_id, None)

    def _send(self, now: float, sender: int, dest: int | None,
              pkt: BeaconPacket) -> None:
        """Hand ``pkt`` to ``deliver_in_range`` with the sender and every
        node live at ``now`` that could hear it: the nodes of the sender's
        3 x 3 cell block for a beacon, the addressee ``dest`` for an ACK."""
        cfg = self.config
        nodes = self.nodes
        ptype = pkt.ptype
        nearby = self._grid.block(sender) if ptype is PacketType.BEACON else (dest,)
        view = {node_id: nodes[node_id].own_position for node_id in nearby
                if not self._halted(node_id, now)}
        view[sender] = nodes[sender].own_position
        payload = (sender, pkt)
        for recipient, delivered in deliver_in_range(
                view, sender, ptype, dest, cfg.radio_range, cfg.loss_rate, self._rng_loss):
            if delivered:
                self._push(now + cfg.prop_delay, EventKind.PACKET_DELIVERY, recipient, payload)

    def _handle_delivery(self, node_id: int, now: float, payload: object) -> None:
        if self._halted(node_id, now):
            return
        sender, pkt = payload
        state = self.nodes[node_id]
        entry = state.neighbors.get(sender)
        prev_key = entry.key if entry is not None else None
        if pkt.ptype is PacketType.BEACON:
            self._emit(now, EV_BEACON_RX, node_id, sender, {"len": pkt.packet_len})
            ack = state.on_receive_beacon(pkt, now)
            done = now + self._costs.receiver_secret
        else:
            self._emit(now, EV_ACK_RX, node_id, sender, {"len": pkt.packet_len})
            state.on_receive_ack(pkt, now)
            ack = None
            done = now + self._costs.sender_secret
        # A node that halts while computing its secret neither records
        # the key nor answers.
        if self._halted(node_id, done):
            return
        key = state.neighbors[sender].key
        if key is not None and key != prev_key:
            self._emit(done, EV_KEY_ESTABLISHED, node_id, sender, {"key": key.hex()})
        if ack is not None:
            self._emit(done, EV_ACK_TX, node_id, sender, {"len": ack.packet_len})
            self._send(done, node_id, sender, ack)

    def _handle_mobility_tick(self, _node: int, now: float, _payload: None) -> None:
        cfg = self.config
        for node_id, vehicle in self.vehicles.items():
            if self._halted(node_id, now):
                continue
            mobility_update(vehicle, MOBILITY_TICK_INTERVAL, cfg.area,
                            cfg.mobility, cfg.speed_range, self._rng_move)
            self.nodes[node_id].own_position = vehicle.position
        self._rebuild_grid()
        self._push(now + MOBILITY_TICK_INTERVAL, EventKind.MOBILITY_TICK, 0, None)

    def _handle_route_probe(self, _node: int, now: float, payload: object) -> None:
        index, probe = payload
        result = route_probe(self.nodes, probe.src, probe.dest,
                             max_hops=self.config.n_vehicles)
        self.probe_results.append(result)
        for at_hop, nxt in zip(result.hops, result.hops[1:]):
            self._emit(now, EV_ROUTE_HOP, at_hop, nxt, {"probe": index})
        if result.outcome is RouteOutcome.LOCAL_MAX:
            self._emit(now, EV_ROUTE_LOCAL_MAX, result.final_node, None,
                       {"probe": index})

    # -- main loop -------------------------------------------------------

    def run(self) -> tuple[Trace, Metrics]:
        heap = self._heap
        duration = self.config.duration
        # Indexed by EventKind.
        handlers = (self._handle_beacon_timer, self._handle_delivery,
                    self._handle_mobility_tick, self._handle_route_probe)
        while heap and heap[0][0] <= duration:
            at, kind, node, _seq, payload = heapq.heappop(heap)
            handlers[kind](node, at, payload)
        # Cost-shifted effects are emitted out of order; re-sort stably.
        trace = Trace(sorted(self._trace, key=attrgetter("t")))
        metrics = compute_metrics(
            trace, radio_range=self.config.radio_range, duration=duration)
        return trace, metrics


def run(config: SimConfig) -> tuple[Trace, Metrics]:
    """Simulate ``config`` to completion; pure function of the config."""
    return Simulation(config).run()


def two_node_config(separation: float, **overrides) -> SimConfig:
    """Convenience: two static vehicles ``separation`` meters apart."""
    base = SimConfig(
        n_vehicles=2,
        placements=((100.0, 100.0), (100.0 + separation, 100.0)),
        speed_range=(0.0, 0.0),
    )
    return replace(base, **overrides)
