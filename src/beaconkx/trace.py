"""Time-ordered event trace with byte-stable JSON-lines serialization.

One record per line::

    {"t": 1.234000, "ev": "beacon_tx", "node": 3, "peer": null,
     "pos": [10.000000, 20.000000], "extra": {"len": 19}}

Every float is rendered with exactly six decimals and extra keys are
emitted in sorted order, so identical simulations produce octet-identical
trace files on any platform.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

EV_BEACON_TX = "beacon_tx"
EV_BEACON_RX = "beacon_rx"
EV_ACK_TX = "ack_tx"
EV_ACK_RX = "ack_rx"
EV_KEY_ESTABLISHED = "key_established"
EV_NEIGHBOR_EXPIRED = "neighbor_expired"
EV_ROUTE_HOP = "route_hop"
EV_ROUTE_LOCAL_MAX = "route_local_max"


class TraceFormatError(ValueError):
    """A trace line that is not a record; the message names the line."""


def _fmt_value(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6f}"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"unsupported extra value type: {type(value)!r}")


@dataclass(frozen=True)
class TraceRecord:
    t: float
    ev: str
    node: int
    peer: int | None
    pos: tuple[float, float]
    extra: dict = field(default_factory=dict)

    def to_json_line(self) -> str:
        peer = "null" if self.peer is None else str(self.peer)
        extra = ", ".join(
            f"{json.dumps(k)}: {_fmt_value(v)}" for k, v in sorted(self.extra.items()))
        return (
            f'{{"t": {self.t:.6f}, "ev": {json.dumps(self.ev)}, '
            f'"node": {self.node}, "peer": {peer}, '
            f'"pos": [{self.pos[0]:.6f}, {self.pos[1]:.6f}], '
            f'"extra": {{{extra}}}}}'
        )


class Trace:
    """Append-only record list; finalized traces are sorted by time."""

    def __init__(self, records: list[TraceRecord] | None = None) -> None:
        self.records: list[TraceRecord] = list(records or [])

    def append(self, record: TraceRecord) -> None:
        self.records.append(record)

    def __iter__(self):
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def to_jsonl(self) -> str:
        return "".join(r.to_json_line() + "\n" for r in self.records)

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        """Parse ``to_jsonl`` text; blank lines are skipped.

        A line that is not a record, a transmission without the integer
        ``len`` the metrics replay sums, or a time that is NaN or earlier
        than the line before raises ``TraceFormatError`` naming its line
        number: the replay needs records in time order.
        """
        records = []
        last_t = -math.inf
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                record = TraceRecord(
                    t=float(obj["t"]),
                    ev=obj["ev"],
                    node=int(obj["node"]),
                    peer=None if obj["peer"] is None else int(obj["peer"]),
                    pos=(float(obj["pos"][0]), float(obj["pos"][1])),
                    extra=dict(obj["extra"]),
                )
                if record.ev in (EV_BEACON_TX, EV_ACK_TX):
                    int(record.extra["len"])
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                raise TraceFormatError(f"line {lineno}: {_reason(exc)}") from exc
            if not record.t >= last_t:
                raise TraceFormatError(
                    f"line {lineno}: time {record.t} out of order after {last_t}")
            last_t = record.t
            records.append(record)
        return cls(records)


def _reason(exc: Exception) -> str:
    if isinstance(exc, json.JSONDecodeError):
        return f"not JSON ({exc.msg})"
    if isinstance(exc, KeyError):
        return f"missing field {exc}"
    return f"malformed record ({exc})"
