"""Seeded scene generators: each workload becomes plain config text.

The simulator sees only the text returned here, parsed by
``beaconkx.config.parse_config_text``. Everything random is drawn from
``random.Random`` streams named after the benchmark seed, so one seed
always yields the same text.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

RADIO_RANGE = 250.0
PROP_DELAY = 0.001
BEACON_INTERVAL = 1.0
EXPIRY_MULTIPLIER = 4.5
MOBILITY_TICK = 0.1  # the simulator's fixed mobility step, in seconds


@dataclass(frozen=True)
class Scene:
    """One generated scene plus the facts the checks need about it."""

    text: str
    dh_bits: int
    per_node: bool
    speed_max: float  # m/s; bounds how far a receiver moves in one tick


def config_text(values: dict[str, object]) -> str:
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def base_values(n: int, duration: float, sim_seed: int, **extra) -> dict[str, object]:
    values: dict[str, object] = {
        "sim.n_vehicles": n,
        "sim.radio_range": RADIO_RANGE,
        "sim.duration": duration,
        "sim.prop_delay": PROP_DELAY,
        "sim.seed": sim_seed,
        "node.beacon_interval": BEACON_INTERVAL,
        "node.expiry_multiplier": EXPIRY_MULTIPLIER,
    }
    values.update(extra)
    return values


def dense(seed: int) -> Scene:
    """24 static vehicles inside one disk of diameter < radio range.

    Every pair is in range and nothing is lost, so every beacon reaches
    every live node and draws an ACK: per-packet work dominates and the
    geometric ground truth is exact. One vehicle, drawn from the seed,
    halts part-way through. The simulator's own seed is fixed: it picks
    the shared group, and one prime search is a heavy-tailed cost that
    would otherwise make set-up time a draw of the seed.
    """
    rng = random.Random(f"perfbench/dense/{seed}")
    n, duration = 24, 8.0
    radius = 0.48 * RADIO_RANGE
    cx = cy = 500.0
    points = []
    for _ in range(n):
        r = radius * math.sqrt(rng.random())
        angle = rng.uniform(0, 2 * math.pi)
        points.append(f"{cx + r * math.cos(angle):.3f},{cy + r * math.sin(angle):.3f}")
    halt = (rng.randint(1, n), round(rng.uniform(3.0, 5.0), 3))
    values = base_values(
        n, duration, 1,
        **{"sim.loss_rate": 0.0, "sim.dh_mode": "global", "sim.dh_bits": 512,
           "sim.placements": "; ".join(points),
           "sim.halts": f"{halt[0]}:{halt[1]}"})
    return Scene(config_text(values), 512, per_node=False, speed_max=0.0)


def fleet(seed: int) -> Scene:
    """A few hundred vehicles at constant velocity, sparse neighbourhoods.

    The area grows with sqrt(N) so each vehicle has about six neighbours:
    per-packet work is light and the O(N) per-send work in the engine
    and the O(N^2) ground truth in the metrics replay dominate. The
    group has 256 bits, so that shared secrets do not hide the engine. One
    vehicle starts at a uniform point of each cell of a square grid, so
    the number of vehicles in range of each other, and with it the
    work, varies little from seed to seed. The simulator's own seed is
    fixed for the same reason as in ``dense``.
    """
    rng = random.Random(f"perfbench/fleet/{seed}")
    cells, duration, degree = 14, 5.0, 6.0
    n = cells * cells
    cell = math.sqrt(math.pi * RADIO_RANGE ** 2 / degree)
    points = [
        f"{(col + rng.random()) * cell:.3f},{(row + rng.random()) * cell:.3f}"
        for row in range(cells) for col in range(cells)
    ]
    values = base_values(
        n, duration, 1,
        **{"sim.area_width": f"{cells * cell:.3f}",
           "sim.area_height": f"{cells * cell:.3f}",
           "sim.placements": "; ".join(points),
           "sim.loss_rate": 0.1, "sim.mobility": "constant_velocity",
           "sim.speed_min": 5.0, "sim.speed_max": 15.0,
           "sim.dh_mode": "global", "sim.dh_bits": 256})
    return Scene(config_text(values), 256, per_node=False, speed_max=15.0)


def pernode(seed: int) -> Scene:
    """10 mobile vehicles, lossy links, a 512-bit group per vehicle.

    Beacons are version 2 and carry (p, w, public). Set-up is the prime
    search of every vehicle; the run is dominated by shared secrets. The
    area's diagonal is shorter than the radio range, so every pair stays
    in range and the work varies little from seed to seed.
    """
    rng = random.Random(f"perfbench/pernode/{seed}")
    n, duration = 10, 6.0
    values = base_values(
        n, duration, rng.randrange(1, 2**31),
        **{"sim.area_width": 150.0, "sim.area_height": 150.0,
           "sim.loss_rate": 0.2, "sim.mobility": "random_waypoint",
           "sim.speed_min": 5.0, "sim.speed_max": 15.0,
           "sim.dh_mode": "per_node", "sim.dh_bits": 512})
    return Scene(config_text(values), 512, per_node=True, speed_max=15.0)


SCENES = {"dense": dense, "fleet": fleet, "pernode": pernode}
