"""Run metrics derived purely from a finished trace.

The trace is replayed event by event: positions come from the ``pos``
field of each record, table membership from beacon/ack receptions and
expiries, key material from ``key_established`` records. Nothing is read
from simulator internals, so metrics are reproducible from a trace file
alone (plus the radio range and duration, which are config, not state).

Per-sample neighbor-table precision/recall compares each node's replayed
table against the geometric adjacency of the last-reported positions.
For static scenes that ground truth is exact; under mobility a position
can be stale by up to one beacon interval.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .grid import pairs_in_range
from .trace import (
    EV_ACK_RX,
    EV_ACK_TX,
    EV_BEACON_RX,
    EV_BEACON_TX,
    EV_KEY_ESTABLISHED,
    EV_NEIGHBOR_EXPIRED,
    Trace,
)

# Seconds of simulated time between neighbor-table samples.
SAMPLE_PERIOD = 1.0


@dataclass(frozen=True)
class SamplePoint:
    t: float
    precision: float
    recall: float


@dataclass(frozen=True)
class Metrics:
    beacons_sent: int
    acks_sent: int
    handshakes_completed: int
    handshake_latency_mean: float | None
    handshake_latency_p95: float | None
    expiries: int
    bytes_on_air: int
    table_samples: tuple[SamplePoint, ...]

    def to_dict(self) -> dict:
        return {
            "beacons_sent": self.beacons_sent,
            "acks_sent": self.acks_sent,
            "handshakes_completed": self.handshakes_completed,
            "handshake_latency_mean": _round6(self.handshake_latency_mean),
            "handshake_latency_p95": _round6(self.handshake_latency_p95),
            "expiries": self.expiries,
            "bytes_on_air": self.bytes_on_air,
            "table_samples": [
                {"t": _round6(s.t), "precision": _round6(s.precision),
                 "recall": _round6(s.recall)}
                for s in self.table_samples
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _round6(value: float | None) -> float | None:
    return None if value is None else round(value, 6)


def _percentile_95(values: list[float]) -> float:
    ordered = sorted(values)
    index = math.ceil(0.95 * len(ordered)) - 1
    return ordered[index]


def compute_metrics(trace: Trace, radio_range: float, duration: float) -> Metrics:
    """Replay ``trace`` and fold it into counters and samples."""
    beacons_sent = 0
    acks_sent = 0
    expiries = 0
    bytes_on_air = 0
    last_pos: dict[int, tuple[float, float]] = {}
    tables: dict[int, set[int]] = {}
    first_beacon_tx: dict[int, float] = {}
    first_established: dict[tuple[int, int], float] = {}

    samples: list[SamplePoint] = []
    next_sample = SAMPLE_PERIOD

    def take_sample() -> None:
        nonlocal next_sample
        precision, recall = _table_accuracy(tables, last_pos, radio_range)
        samples.append(SamplePoint(t=next_sample, precision=precision,
                                   recall=recall))
        next_sample += SAMPLE_PERIOD

    for rec in trace:
        # A sample at s reflects every record with t <= s; emit it once
        # the first strictly later record shows up (trace is sorted).
        while next_sample <= duration and rec.t > next_sample + 1e-9:
            take_sample()
        last_pos[rec.node] = rec.pos
        if rec.ev == EV_BEACON_TX:
            beacons_sent += 1
            bytes_on_air += int(rec.extra["len"])
            first_beacon_tx.setdefault(rec.node, rec.t)
        elif rec.ev == EV_ACK_TX:
            acks_sent += 1
            bytes_on_air += int(rec.extra["len"])
        elif rec.ev in (EV_BEACON_RX, EV_ACK_RX):
            tables.setdefault(rec.node, set()).add(rec.peer)
        elif rec.ev == EV_NEIGHBOR_EXPIRED:
            tables.setdefault(rec.node, set()).discard(rec.peer)
            expiries += 1
        elif rec.ev == EV_KEY_ESTABLISHED:
            first_established.setdefault((rec.node, rec.peer), rec.t)
    while next_sample <= duration:
        take_sample()

    handshakes_completed = len(first_established)
    latencies = _pair_latencies(first_beacon_tx, first_established)
    mean = sum(latencies) / len(latencies) if latencies else None
    p95 = _percentile_95(latencies) if latencies else None

    return Metrics(
        beacons_sent=beacons_sent,
        acks_sent=acks_sent,
        handshakes_completed=handshakes_completed,
        handshake_latency_mean=mean,
        handshake_latency_p95=p95,
        expiries=expiries,
        bytes_on_air=bytes_on_air,
        table_samples=tuple(samples),
    )


def _table_accuracy(tables: dict[int, set[int]],
                    last_pos: dict[int, tuple[float, float]],
                    radio_range: float) -> tuple[float, float]:
    """Directed precision/recall of replayed tables vs geometric truth."""
    truth: set[tuple[int, int]] = set()
    for a, b in pairs_in_range(last_pos, radio_range):
        truth.add((a, b))
        truth.add((b, a))
    held = {
        (node, peer) for node, peers in tables.items() for peer in peers
    }
    true_positive = len(held & truth)
    precision = true_positive / len(held) if held else 1.0
    recall = true_positive / len(truth) if truth else 1.0
    return precision, recall


def _pair_latencies(first_beacon_tx: dict[int, float],
                    first_established: dict[tuple[int, int], float]) -> list[float]:
    """Per unordered pair: both directions keyed, measured from the
    earlier of the two members' first beacons."""
    latencies = []
    for (a, b), t_ab in first_established.items():
        if a >= b:
            continue
        t_ba = first_established.get((b, a))
        if t_ba is None:
            continue
        start_candidates = [t for t in (first_beacon_tx.get(a), first_beacon_tx.get(b))
                            if t is not None]
        if not start_candidates:
            continue
        # Endpoints at the trace file's six decimals, so that a replay
        # from the file measures the same latencies as the run itself.
        latencies.append(round(max(t_ab, t_ba), 6) - round(min(start_candidates), 6))
    return latencies
