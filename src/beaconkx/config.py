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


class ConfigFileError(ConfigError):
    """Config text rejected; the message names the offending key/line."""


_BOOL_WORDS = {
    "true": True, "on": True, "yes": True, "1": True,
    "false": False, "off": False, "no": False, "0": False,
}

_SIM_SCALARS = {
    "sim.n_vehicles": int,
    "sim.area_width": float,
    "sim.area_height": float,
    "sim.radio_range": float,
    "sim.speed_min": float,
    "sim.speed_max": float,
    "sim.duration": float,
    "sim.loss_rate": float,
    "sim.prop_delay": float,
    "sim.seed": int,
    "sim.dh_bits": int,
}

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

_MOBILITY_WORDS = {m.value: m for m in Mobility}
_DH_MODE_WORDS = {m.value: m for m in DhMode}

KNOWN_KEYS = (
    set(_SIM_SCALARS) | set(_COST_KEYS) | set(_NODE_FIELDS)
    | {"sim.mobility", "sim.dh_mode", "sim.crypto_costs",
       "sim.placements", "sim.halts", "sim.probes"}
)


def _parse_bool(key: str, raw: str) -> bool:
    try:
        return _BOOL_WORDS[raw.lower()]
    except KeyError:
        raise ConfigFileError(f"key '{key}': expected a boolean, got '{raw}'") from None


def _parse_scalar(key: str, raw: str, kind) -> object:
    if kind == "bool":
        return _parse_bool(key, raw)
    try:
        return kind(raw)
    except ValueError:
        raise ConfigFileError(
            f"key '{key}': expected {kind.__name__}, got '{raw}'") from None


def _split_items(raw: str) -> list[str]:
    return [item.strip() for item in raw.split(";") if item.strip()]


def _parse_placements(raw: str) -> tuple[tuple[float, float], ...]:
    key = "sim.placements"
    placements = []
    for item in _split_items(raw):
        parts = item.split(",")
        if len(parts) != 2:
            raise ConfigFileError(
                f"key '{key}': expected 'x,y' items, got '{item}'")
        placements.append(tuple(_parse_scalar(key, part, float) for part in parts))
    return tuple(placements)


def _parse_halts(raw: str) -> tuple[tuple[int, float], ...]:
    key = "sim.halts"
    halts = []
    for item in _split_items(raw):
        parts = item.split(":")
        if len(parts) != 2:
            raise ConfigFileError(
                f"key '{key}': expected 'node:t' items, got '{item}'")
        halts.append((_parse_scalar(key, parts[0], int),
                      _parse_scalar(key, parts[1], float)))
    return tuple(halts)


def _parse_probes(raw: str) -> tuple[RouteProbe, ...]:
    key = "sim.probes"
    probes = []
    for item in _split_items(raw):
        parts = item.split(":")
        if len(parts) != 4:
            raise ConfigFileError(
                f"key '{key}': expected 'at:src:x:y' items, got '{item}'")
        probes.append(RouteProbe(
            at=_parse_scalar(key, parts[0], float),
            src=_parse_scalar(key, parts[1], int),
            dest=Position(_parse_scalar(key, parts[2], float),
                          _parse_scalar(key, parts[3], float))))
    return tuple(probes)


def parse_config_text(text: str) -> SimConfig:
    """Parse config text into a validated :class:`SimConfig`."""
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigFileError(f"line {lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in KNOWN_KEYS:
            raise ConfigFileError(f"line {lineno}: unknown key '{key}'")
        if key in values:
            raise ConfigFileError(f"line {lineno}: duplicate key '{key}'")
        values[key] = raw

    sim_kwargs: dict = {}
    for key, kind in _SIM_SCALARS.items():
        if key in values:
            field = key.split(".", 1)[1]
            if field in ("area_width", "area_height", "speed_min", "speed_max"):
                continue  # folded into tuples below
            sim_kwargs[field] = _parse_scalar(key, values[key], kind)

    if "sim.area_width" in values or "sim.area_height" in values:
        width = _parse_scalar("sim.area_width", values.get("sim.area_width", "1000"), float)
        height = _parse_scalar("sim.area_height", values.get("sim.area_height", "1000"), float)
        sim_kwargs["area"] = (width, height)
    if "sim.speed_min" in values or "sim.speed_max" in values:
        lo = _parse_scalar("sim.speed_min", values.get("sim.speed_min", "0"), float)
        hi = _parse_scalar("sim.speed_max", values.get("sim.speed_max", "0"), float)
        sim_kwargs["speed_range"] = (lo, hi)

    if "sim.mobility" in values:
        word = values["sim.mobility"].lower()
        if word not in _MOBILITY_WORDS:
            raise ConfigFileError(
                f"key 'sim.mobility': expected one of {sorted(_MOBILITY_WORDS)}, "
                f"got '{word}'")
        sim_kwargs["mobility"] = _MOBILITY_WORDS[word]
    if "sim.dh_mode" in values:
        word = values["sim.dh_mode"].lower()
        if word not in _DH_MODE_WORDS:
            raise ConfigFileError(
                f"key 'sim.dh_mode': expected one of {sorted(_DH_MODE_WORDS)}, "
                f"got '{word}'")
        sim_kwargs["dh_mode"] = _DH_MODE_WORDS[word]

    costs_on = ("sim.crypto_costs" in values
                and _parse_bool("sim.crypto_costs", values["sim.crypto_costs"]))
    cost_overrides = {
        field: _parse_scalar(key, values[key], float)
        for key, field in _COST_KEYS.items() if key in values
    }
    if cost_overrides and not costs_on:
        raise ConfigFileError(
            "cost overrides given but 'sim.crypto_costs' is not enabled")
    if costs_on:
        sim_kwargs["crypto_costs"] = CryptoCosts(**cost_overrides)

    if "sim.placements" in values:
        sim_kwargs["placements"] = _parse_placements(values["sim.placements"])
    if "sim.halts" in values:
        sim_kwargs["halts"] = _parse_halts(values["sim.halts"])
    if "sim.probes" in values:
        sim_kwargs["probes"] = _parse_probes(values["sim.probes"])

    node_kwargs = {}
    for key, kind in _NODE_FIELDS.items():
        if key in values:
            node_kwargs[key.split(".", 1)[1]] = _parse_scalar(key, values[key], kind)
    try:
        sim_kwargs["node_config"] = NodeConfig(**node_kwargs)
    except ValueError as exc:
        raise ConfigFileError(f"node configuration invalid: {exc}") from exc

    if "n_vehicles" not in sim_kwargs:
        raise ConfigFileError("required key 'sim.n_vehicles' is missing")
    config = SimConfig(**sim_kwargs)
    config.validate()
    return config


def load_config_file(path: str) -> SimConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config_text(handle.read())
