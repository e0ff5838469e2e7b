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

_TRANSMISSIONS = (EV_BEACON_TX, EV_ACK_TX)


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


@dataclass(frozen=True, slots=True)
class TraceRecord:
    t: float
    ev: str
    node: int
    peer: int | None
    pos: tuple[float, float]
    extra: dict = field(default_factory=dict)


class Trace:
    """Append-only record list; finalized traces are sorted by time."""

    def __init__(self, records: list[TraceRecord] | None = None) -> None:
        self.records: list[TraceRecord] = list(records or [])

    def __iter__(self):
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def to_jsonl(self) -> str:
        """One line per record, each event name and extra key quoted once."""
        quoted: dict[str, str] = {}
        lines = []
        append = lines.append
        for record in self.records:
            ev = quoted.get(record.ev)
            if ev is None:
                ev = quoted[record.ev] = json.dumps(record.ev)
            extra = record.extra
            if extra:
                fields = []
                for key, value in sorted(extra.items()) if len(extra) > 1 else extra.items():
                    name = quoted.get(key)
                    if name is None:
                        name = quoted[key] = json.dumps(key)
                    kind = type(value)
                    if kind is int:
                        fields.append(f"{name}: {value}")
                    elif kind is float:
                        fields.append(f"{name}: {value:.6f}")
                    else:
                        fields.append(f"{name}: {_fmt_value(value)}")
                extra_text = ", ".join(fields)
            else:
                extra_text = ""
            peer = record.peer
            pos = record.pos
            append(f'{{"t": {record.t:.6f}, "ev": {ev}, "node": {record.node}, '
                   f'"peer": {"null" if peer is None else peer}, '
                   f'"pos": [{pos[0]:.6f}, {pos[1]:.6f}], "extra": {{{extra_text}}}}}\n')
        return "".join(lines)

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        """Parse ``to_jsonl`` text; blank lines are skipped.

        Each line must hold a record of the types ``to_jsonl`` writes:
        ``node`` and ``peer`` JSON integers (``peer`` may be null), ``t``
        and both ``pos`` coordinates finite numbers, ``ev`` a string and
        ``extra`` an object; a transmission's ``extra`` holds the integer
        ``len`` the metrics replay sums. Anything else, or a time earlier
        than the line before, raises ``TraceFormatError`` naming its line
        number: the replay needs well-typed records in time order.
        """
        loads = json.loads
        isfinite = math.isfinite
        records: list[TraceRecord] = []
        append = records.append
        last_t = -math.inf
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                obj = loads(line)
                t, ev, node, peer, pos, extra = (
                    obj["t"], obj["ev"], obj["node"], obj["peer"], obj["pos"], obj["extra"])
                if type(ev) is not str:
                    raise ValueError(f"ev {ev!r} is not a string")
                if type(node) is not int or (peer is not None and type(peer) is not int):
                    raise ValueError(f"node {node!r} or peer {peer!r} is not an integer")
                if type(pos) is not list or len(pos) != 2:
                    raise ValueError(f"pos {pos!r} is not two coordinates")
                x, y = pos
                if not (type(t) is float and type(x) is float and type(y) is float):
                    t, x, y = _number(t), _number(x), _number(y)
                if not (isfinite(t) and isfinite(x) and isfinite(y)):
                    raise ValueError(f"t {t!r} or pos {pos!r} is not finite")
                if type(extra) is not dict:
                    raise ValueError(f"extra {extra!r} is not an object")
                if ev in _TRANSMISSIONS and type(extra["len"]) is not int:
                    raise ValueError(f"len {extra['len']!r} is not an integer")
            except (ValueError, KeyError, TypeError, OverflowError) as exc:
                raise TraceFormatError(f"line {lineno}: {_reason(exc)}") from exc
            if not t >= last_t:
                raise TraceFormatError(f"line {lineno}: time {t} out of order after {last_t}")
            last_t = t
            append(TraceRecord(t, ev, node, peer, (x, y), extra))
        return cls(records)


def _number(value: object) -> float:
    """A JSON number as a float: an integer may stand for one, a bool may not."""
    if type(value) is not float and type(value) is not int:
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def _reason(exc: Exception) -> str:
    if isinstance(exc, json.JSONDecodeError):
        return f"not JSON ({exc.msg})"
    if isinstance(exc, KeyError):
        return f"missing field {exc}"
    return f"malformed record ({exc})"
