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
import re
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
# Events about a pair of nodes: their ``peer`` is never null.
_PEERED = frozenset((EV_BEACON_RX, EV_ACK_TX, EV_ACK_RX, EV_KEY_ESTABLISHED,
                     EV_NEIGHBOR_EXPIRED, EV_ROUTE_HOP))


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


@dataclass(slots=True)
class TraceRecord:
    """One trace event. Read-only by convention: nothing in the program
    changes a record once it is built. Records may share their immutable
    values (a time, an event name, a node id, a ``pos`` tuple), never an
    ``extra``. A run's records hold their node's ``codec.Position``, one
    object per node between mobility ticks; a read trace's hold plain
    tuples, one per distinct position text. The two compare equal.

    Not frozen: a frozen dataclass sets each field through
    ``object.__setattr__``, which made building one about three times as
    slow, and every run and every trace read builds one per event. Its
    ``__hash__`` never worked either, since ``extra`` is a dict.
    ``==``, ``repr`` and ``dataclasses.replace`` are kept.
    """

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
        """One line per record, each event name and extra key quoted once.

        Records come in time order and a node keeps its position object
        between mobility ticks, so each instant's time is formatted once,
        and each node's position once per object. A zero time is never
        taken from the last one: ``0.0 == -0.0``, but they print
        differently.
        """
        quoted: dict[str, str] = {}
        positions: dict[int, tuple[tuple[float, float], str]] = {}  # node -> (pos, its text)
        last_t = math.nan
        lines = []
        append = lines.append
        for record in self.records:
            t = record.t
            if t != last_t:
                t_text = f"{t:.6f}"
                last_t = t if t else math.nan
            pos = record.pos
            cached = positions.get(record.node)
            if cached is not None and cached[0] is pos:
                pos_text = cached[1]
            else:
                pos_text = f"{pos[0]:.6f}, {pos[1]:.6f}"
                positions[record.node] = (pos, pos_text)
            ev = quoted.get(record.ev)
            if ev is None:
                ev = quoted[record.ev] = json.dumps(record.ev)
            extra = record.extra
            if not extra:
                extra_text = ""
            elif len(extra) == 1 and type((item := next(iter(extra.items())))[1]) is int:
                key, value = item
                name = quoted.get(key)
                if name is None:
                    name = quoted[key] = json.dumps(key)
                extra_text = f"{name}: {value}"
            else:
                fields = []
                for key, value in sorted(extra.items()) if len(extra) > 1 else extra.items():
                    name = quoted.get(key)
                    if name is None:
                        name = quoted[key] = json.dumps(key)
                    fields.append(f"{name}: {_fmt_value(value)}")
                extra_text = ", ".join(fields)
            peer = record.peer
            append(f'{{"t": {t_text}, "ev": {ev}, "node": {record.node}, '
                   f'"peer": {"null" if peer is None else peer}, '
                   f'"pos": [{pos_text}], "extra": {{{extra_text}}}}}\n')
        return "".join(lines)

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        """Parse ``to_jsonl`` text; blank lines are skipped.

        A line ends at a line feed alone, as ``to_jsonl`` writes it; a
        carriage return before it is JSON whitespace, so a CR LF file reads
        the same. Any other line break Unicode knows, such as U+2028 in an
        ``extra`` string, is part of the line.

        Each line must hold a record of the types ``to_jsonl`` writes:
        ``node`` and ``peer`` JSON integers (``peer`` may be null except on
        the events about a pair: ``beacon_rx``, ``ack_tx``, ``ack_rx``,
        ``key_established``, ``neighbor_expired`` and ``route_hop``), ``t``
        and both ``pos`` coordinates finite numbers, ``ev`` a string and
        ``extra`` an object; a transmission's ``extra`` holds the
        non-negative integer ``len`` the metrics replay sums. Anything
        else, or a time earlier than the line before, raises
        ``TraceFormatError`` naming its line number: the replay needs
        well-typed records in time order.

        The text is not split into lines. At each line's start the reader
        first matches the exact form ``to_jsonl`` writes, with a flat
        ``extra``, in place; that pattern ends at a line feed or the end of
        the text and holds none inside, so a match is one whole line. Such
        a line is read without the JSON decoder: its fields are converted
        from the matched text, each distinct time, position, node id,
        event name and ``extra`` text once per call, so records that
        repeat a value share one immutable object. Any other line is cut
        out up to its line feed and goes through ``json.loads`` and the
        checks of ``_parse_line``, as does one whose fields fail a check
        on the first path. Both paths accept the same lines and give equal
        records, each with its own ``extra`` dict; only the second writes
        errors, so every rejection is the one the JSON decoder's path
        gives. Line numbers are counted only for an error.
        """
        canonical = _CANONICAL_LINE.match
        names = _Converted(str)  # the first copy of each event name
        ids = _Converted(int)  # node and peer
        ids["null"] = None
        positions = _Converted(_position)
        extras = _Converted(json.loads)
        records: list[TraceRecord] = []
        append = records.append
        last_t = -math.inf
        t_text = None  # the time text last converted; the next line often repeats it
        start, size = 0, len(text)
        while start <= size:
            record = None
            match = canonical(text, start)
            if match is not None:
                time, ev, node, peer, pos, extra = match.groups()
                try:
                    if time != t_text:
                        t, t_text = _finite(time), time
                    ev, node, peer, pos, extra = (
                        names[ev], ids[node], ids[peer], positions[pos], extras[extra])
                    if ((peer is not None or ev not in _PEERED)
                            and (ev not in _TRANSMISSIONS
                                 or type(length := extra.get("len")) is int and length >= 0)):
                        record = TraceRecord(t, ev, node, peer, pos, dict(extra))
                except ValueError:  # a number past int's digits or float's range, or bad JSON
                    pass
            if record is None:
                end = text.find("\n", start)
                if end < 0:
                    end = size
                line = text[start:end]
                if not line.strip():
                    start = end + 1
                    continue
                try:
                    record = _parse_line(line)
                except (ValueError, KeyError, TypeError, OverflowError,
                        RecursionError) as exc:  # RecursionError: deep nesting
                    lineno = text.count("\n", 0, start) + 1
                    raise TraceFormatError(f"line {lineno}: {_reason(exc)}") from exc
            else:
                end = match.end()
            if not record.t >= last_t:
                lineno = text.count("\n", 0, start) + 1
                raise TraceFormatError(
                    f"line {lineno}: time {record.t} out of order after {last_t}")
            last_t = record.t
            append(record)
            start = end + 1
        return cls(records)


# The line ``to_jsonl`` writes, and the ``\r`` a ``\r\n`` file leaves at its
# end, matched where a line starts in the whole text: it ends at a line
# feed or the end of the text, and ``extra`` holds no line feed, so a match
# never runs into the next line. Numbers follow JSON's grammar (no leading
# zero, ``[0-9]`` rather than any Unicode digit ``int`` would take), and
# ``extra`` holds no list or object: a shallow copy of its decoded dict is
# a full one, and decoding it cannot recurse.
_INT = r"-?(?:0|[1-9][0-9]*)"
_FLOAT = _INT + r"\.[0-9]+"
_CANONICAL_LINE = re.compile(
    r'\{"t": (' + _FLOAT + r'), "ev": "([a-z_]+)", "node": (' + _INT + r'), '
    r'"peer": (null|' + _INT + r'), "pos": \[(' + _FLOAT + r', ' + _FLOAT + r')\], '
    r'"extra": (\{[^][{}\n]*\})\}\r?(?=\n|\Z)')


def _parse_line(line: str) -> TraceRecord:
    """One line through the JSON decoder, with every check ``from_jsonl`` names."""
    obj = json.loads(line)
    t, ev, node, peer, pos, extra = (
        obj["t"], obj["ev"], obj["node"], obj["peer"], obj["pos"], obj["extra"])
    if type(ev) is not str:
        raise ValueError(f"ev {ev!r} is not a string")
    if type(node) is not int or (
            type(peer) is not int and (peer is not None or ev in _PEERED)):
        raise ValueError(f"node {node!r} or peer {peer!r} is not an integer")
    if type(pos) is not list or len(pos) != 2:
        raise ValueError(f"pos {pos!r} is not two coordinates")
    x, y = pos
    if not (type(t) is float and type(x) is float and type(y) is float):
        t, x, y = _number(t), _number(x), _number(y)
    if not (math.isfinite(t) and math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"t {t!r} or pos {pos!r} is not finite")
    if type(extra) is not dict:
        raise ValueError(f"extra {extra!r} is not an object")
    if ev in _TRANSMISSIONS and not (type(extra["len"]) is int and extra["len"] >= 0):
        raise ValueError(f"len {extra['len']!r} is not a non-negative integer")
    return TraceRecord(t, ev, node, peer, (x, y), extra)


class _Converted(dict):
    """Each distinct text converted once: ``self[text]`` calls ``convert``
    only for a text it has not seen."""

    def __init__(self, convert) -> None:
        self.convert = convert

    def __missing__(self, text: str):
        value = self[text] = self.convert(text)
        return value


def _position(text: str) -> tuple[float, float]:
    x, _, y = text.partition(", ")
    return _finite(x), _finite(y)


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not finite")
    return value


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
