"""Plain key = value configuration files for the command-line harness.

Format: one ``key = value`` pair per line, ``#`` starts a comment, blank
lines ignored. Keys are dotted and mirror the simulation and node
config fields (``sim.loss_rate``, ``node.beacon_interval``, ...).
Unknown and duplicate keys are hard errors: a typo must never silently
fall back to a default. One pass reads the lines in order and stops at
the first fault, naming its line and quoting what it echoes with ``repr``.

Structured values use compact one-line forms:

* ``sim.placements = x,y; x,y; ...`` - one explicit position per vehicle
* ``sim.halts = node:t; node:t``     - nodes falling silent at time t
* ``sim.probes = at:src:x:y; ...``   - greedy-routing probes
"""

from __future__ import annotations

from collections import defaultdict

from .codec import Position
from .protocol import DhMode, NodeConfig
from .sim import ConfigError, CryptoCosts, Mobility, RouteProbe, SimConfig


def content_lines(text: str):
    """Yield ``(line number, content)`` for each line of ``text`` that has
    content: a line ends at ``\\n`` alone, ``#`` starts a comment, and the
    whitespace around the rest is dropped."""
    for lineno, line in enumerate(text.split("\n"), start=1):
        content = line.split("#", 1)[0].strip()
        if content:
            yield lineno, content


def _parser(convert, expected: str):
    """A parser of a value's text that raises ValueError saying what it
    expected; the caller names the key and the line."""
    def parse(raw: str):
        try:
            return convert(raw)
        except (KeyError, ValueError):
            raise ValueError(f"expected {expected}, got {raw!r}") from None
    return parse


_INT, _FLOAT = _parser(int, "int"), _parser(float, "float")
_BOOL_WORDS = {
    "true": True, "on": True, "yes": True, "1": True,
    "false": False, "off": False, "no": False, "0": False,
}
_BOOL = _parser(lambda raw: _BOOL_WORDS[raw.lower()], "a boolean")


def _word(enum):
    words = {member.value: member for member in enum}
    parse = _parser(words.__getitem__, f"one of {sorted(words)}")
    return lambda raw: parse(raw.lower())


def _items(sep: str, make=lambda *fields: fields, **fields):
    """A parser of ``;``-separated items of ``sep``-separated fields, one per
    keyword of ``fields`` in order: its name, and its parser. ``make``
    builds an item from its parsed fields."""
    def parse(raw: str) -> tuple:
        items = []
        for item in raw.split(";"):
            item = item.strip()
            if not item:
                continue
            parts = item.split(sep)
            if len(parts) != len(fields):
                raise ValueError(f"expected '{sep.join(fields)}' items, got {item!r}")
            items.append(make(*(parse_field(part)
                                for part, parse_field in zip(parts, fields.values()))))
        return tuple(items)
    return parse


# key: (target, field, parser). A target is SimConfig ("sim"), NodeConfig
# ("node") or CryptoCosts ("costs"), or a pair field of SimConfig, whose
# field is the half, 0 or 1. No two keys share a target and field, so a
# field set twice is a key given twice.
_KEYS = {
    "sim.n_vehicles": ("sim", "n_vehicles", _INT),
    "sim.area_width": ("area", 0, _FLOAT),
    "sim.area_height": ("area", 1, _FLOAT),
    "sim.radio_range": ("sim", "radio_range", _FLOAT),
    "sim.speed_min": ("speed_range", 0, _FLOAT),
    "sim.speed_max": ("speed_range", 1, _FLOAT),
    "sim.mobility": ("sim", "mobility", _word(Mobility)),
    "sim.duration": ("sim", "duration", _FLOAT),
    "sim.loss_rate": ("sim", "loss_rate", _FLOAT),
    "sim.prop_delay": ("sim", "prop_delay", _FLOAT),
    "sim.seed": ("sim", "seed", _INT),
    "sim.dh_bits": ("sim", "dh_bits", _INT),
    "sim.dh_mode": ("sim", "dh_mode", _word(DhMode)),
    "sim.crypto_costs": ("sim", "crypto_costs", _BOOL),
    "sim.cost_param_gen": ("costs", "param_gen", _FLOAT),
    "sim.cost_sender_secret": ("costs", "sender_secret", _FLOAT),
    "sim.cost_receiver_secret": ("costs", "receiver_secret", _FLOAT),
    "sim.placements": ("sim", "placements", _items(",", x=_FLOAT, y=_FLOAT)),
    "sim.halts": ("sim", "halts", _items(":", node=_INT, t=_FLOAT)),
    "sim.probes": ("sim", "probes", _items(
        ":", lambda at, src, x, y: RouteProbe(at, src, Position(x, y)),
        at=_FLOAT, src=_INT, x=_FLOAT, y=_FLOAT)),
    "node.beacon_interval": ("node", "beacon_interval", _FLOAT),
    "node.expiry_multiplier": ("node", "expiry_multiplier", _FLOAT),
    "node.adaptive": ("node", "adaptive", _BOOL),
    "node.target_degree": ("node", "target_degree", _INT),
    "node.adapt_gain": ("node", "adapt_gain", _FLOAT),
    "node.interval_min": ("node", "interval_min", _FLOAT),
    "node.interval_max": ("node", "interval_max", _FLOAT),
}

KNOWN_KEYS = _KEYS.keys()


def parse_config_text(text: str) -> SimConfig:
    """Parse config text into a validated :class:`SimConfig`; a line ends at
    ``\\n`` alone, as the line numbers of its errors count them."""
    given: dict[str, dict] = defaultdict(dict)
    for lineno, content in content_lines(text):
        key, equals, raw = content.partition("=")
        if not equals:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        target, field, parse = _KEYS[key]
        if field in given[target]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            given[target][field] = parse(raw.strip())
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: key {key!r}: {exc}") from None

    sim = given["sim"]
    for pair in ("area", "speed_range"):
        if given[pair]:
            sim[pair] = tuple(given[pair].get(half, default)
                              for half, default in enumerate(getattr(SimConfig, pair)))
    costs_on = sim.pop("crypto_costs", False)
    if given["costs"] and not costs_on:
        raise ConfigError(
            "cost overrides given but 'sim.crypto_costs' is not enabled")
    if costs_on:
        sim["crypto_costs"] = CryptoCosts(**given["costs"])
    if "n_vehicles" not in sim:
        raise ConfigError("required key 'sim.n_vehicles' is missing")
    return SimConfig(**sim, node_config=NodeConfig(**given["node"]))
