"""Plain key = value configuration files for the command-line harness.

Format: one ``key = value`` pair per line, ``#`` starts a comment, blank
lines ignored. Keys are dotted and mirror the simulation and node
config fields (``sim.loss_rate``, ``node.beacon_interval``, ...).
Unknown and duplicate keys are hard errors: a typo must never silently
fall back to a default.

Structured values use compact one-line forms:

* ``sim.placements = x,y; x,y; ...`` - one explicit position per vehicle
* ``sim.halts = node:t; node:t``     - nodes falling silent at time t
* ``sim.probes = at:src:x:y; ...``   - greedy-routing probes
"""

from __future__ import annotations

from .codec import Position
from .protocol import DhMode, NodeConfig
from .sim import ConfigError, CryptoCosts, Mobility, RouteProbe, SimConfig

_BOOL_WORDS = {
    "true": True, "on": True, "yes": True, "1": True,
    "false": False, "off": False, "no": False, "0": False,
}

_SIM_SCALARS = {
    "sim.n_vehicles": int,
    "sim.radio_range": float,
    "sim.duration": float,
    "sim.loss_rate": float,
    "sim.prop_delay": float,
    "sim.seed": int,
    "sim.dh_bits": int,
}

# Tuple fields given as two float keys; a key left out keeps the field's
# default for its half.
_SIM_PAIRS = {
    "area": ("sim.area_width", "sim.area_height"),
    "speed_range": ("sim.speed_min", "sim.speed_max"),
}

_SIM_WORDS = {"sim.mobility": Mobility, "sim.dh_mode": DhMode}

_COST_KEYS = {
    "sim.cost_param_gen": "param_gen",
    "sim.cost_sender_secret": "sender_secret",
    "sim.cost_receiver_secret": "receiver_secret",
}

_NODE_FIELDS = {
    "node.beacon_interval": float,
    "node.expiry_multiplier": float,
    "node.adaptive": "bool",
    "node.target_degree": int,
    "node.adapt_gain": float,
    "node.interval_min": float,
    "node.interval_max": float,
}

KNOWN_KEYS = (
    set(_SIM_SCALARS) | {key for keys in _SIM_PAIRS.values() for key in keys}
    | set(_SIM_WORDS) | set(_COST_KEYS) | set(_NODE_FIELDS)
    | {"sim.crypto_costs", "sim.placements", "sim.halts", "sim.probes"}
)


def _parse_bool(key: str, raw: str) -> bool:
    try:
        return _BOOL_WORDS[raw.lower()]
    except KeyError:
        raise ConfigError(f"key '{key}': expected a boolean, got '{raw}'") from None


def _parse_scalar(key: str, raw: str, kind) -> object:
    if kind == "bool":
        return _parse_bool(key, raw)
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(
            f"key '{key}': expected {kind.__name__}, got '{raw}'") from None


def _parse_items(key: str, raw: str, sep: str, **kinds) -> tuple[tuple, ...]:
    """Parse ``;``-separated items of ``sep``-separated fields, one per
    keyword of ``kinds`` in order: its name, and the type to parse it as."""
    items = []
    for item in raw.split(";"):
        item = item.strip()
        if not item:
            continue
        parts = item.split(sep)
        if len(parts) != len(kinds):
            raise ConfigError(
                f"key '{key}': expected '{sep.join(kinds)}' items, got '{item}'")
        items.append(tuple(_parse_scalar(key, part, kind)
                           for part, kind in zip(parts, kinds.values())))
    return tuple(items)


def parse_config_text(text: str) -> SimConfig:
    """Parse config text into a validated :class:`SimConfig`; a line ends at
    ``\\n`` alone, as the line numbers of its errors count them."""
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        values[key] = raw

    sim_kwargs: dict = {}
    for key, kind in _SIM_SCALARS.items():
        if key in values:
            sim_kwargs[key.split(".", 1)[1]] = _parse_scalar(key, values[key], kind)
    for field, keys in _SIM_PAIRS.items():
        if any(key in values for key in keys):
            sim_kwargs[field] = tuple(
                _parse_scalar(key, values[key], float) if key in values else default
                for key, default in zip(keys, getattr(SimConfig, field)))
    for key, enum in _SIM_WORDS.items():
        if key in values:
            words = {member.value: member for member in enum}
            word = values[key].lower()
            if word not in words:
                raise ConfigError(
                    f"key '{key}': expected one of {sorted(words)}, got '{word}'")
            sim_kwargs[key.split(".", 1)[1]] = words[word]

    costs_on = ("sim.crypto_costs" in values
                and _parse_bool("sim.crypto_costs", values["sim.crypto_costs"]))
    cost_overrides = {
        field: _parse_scalar(key, values[key], float)
        for key, field in _COST_KEYS.items() if key in values
    }
    if cost_overrides and not costs_on:
        raise ConfigError(
            "cost overrides given but 'sim.crypto_costs' is not enabled")
    if costs_on:
        sim_kwargs["crypto_costs"] = CryptoCosts(**cost_overrides)

    if "sim.placements" in values:
        sim_kwargs["placements"] = _parse_items(
            "sim.placements", values["sim.placements"], ",", x=float, y=float)
    if "sim.halts" in values:
        sim_kwargs["halts"] = _parse_items(
            "sim.halts", values["sim.halts"], ":", node=int, t=float)
    if "sim.probes" in values:
        sim_kwargs["probes"] = tuple(
            RouteProbe(at, src, Position(x, y)) for at, src, x, y in _parse_items(
                "sim.probes", values["sim.probes"], ":", at=float, src=int, x=float, y=float))

    node_kwargs = {}
    for key, kind in _NODE_FIELDS.items():
        if key in values:
            node_kwargs[key.split(".", 1)[1]] = _parse_scalar(key, values[key], kind)
    sim_kwargs["node_config"] = NodeConfig(**node_kwargs)

    if "n_vehicles" not in sim_kwargs:
        raise ConfigError("required key 'sim.n_vehicles' is missing")
    return SimConfig(**sim_kwargs)
