import contextlib
import io
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from beaconkx.cli import main
from beaconkx.codec import Position
from beaconkx.config import KNOWN_KEYS, parse_config_text
from beaconkx.protocol import DhMode
from beaconkx.sim import ConfigError, CryptoCosts, Mobility, RouteProbe

README = Path(__file__).parent.parent / "README.md"

FULL_CONFIG = """
# two vehicles facing each other
sim.n_vehicles = 2
sim.area_width = 800
sim.area_height = 600
sim.radio_range = 250
sim.speed_min = 0
sim.speed_max = 0
sim.mobility = constant_velocity
sim.duration = 10
sim.loss_rate = 0.0
sim.prop_delay = 0.001
sim.seed = 1
sim.dh_bits = 64
sim.dh_mode = per_node
sim.placements = 100,100; 200,100
sim.halts = 2:8.0
sim.probes = 5.0:1:200:100

node.beacon_interval = 1.0
node.expiry_multiplier = 4.5
node.adaptive = off
node.target_degree = 8
node.adapt_gain = 0.5
node.interval_min = 0.1
node.interval_max = 10.0
"""


class TestParsing:
    def test_full_config(self):
        cfg = parse_config_text(FULL_CONFIG)
        assert cfg.n_vehicles == 2
        assert cfg.area == (800.0, 600.0)
        assert cfg.mobility is Mobility.CONSTANT_VELOCITY
        assert cfg.dh_mode is DhMode.PER_NODE_PARAMS
        assert cfg.dh_bits == 64
        assert cfg.placements == ((100.0, 100.0), (200.0, 100.0))
        assert cfg.halts == ((2, 8.0),)
        assert len(cfg.probes) == 1
        assert cfg.probes[0].dest == Position(200.0, 100.0)
        assert cfg.node_config.beacon_interval == 1.0
        assert cfg.crypto_costs is None

    def test_minimal_config_uses_defaults(self):
        cfg = parse_config_text("sim.n_vehicles = 3")
        assert cfg.n_vehicles == 3
        assert cfg.radio_range == 250.0
        assert cfg.seed == 1

    def test_half_a_pair_keeps_the_other_default(self):
        cfg = parse_config_text(
            "sim.n_vehicles = 2\nsim.area_width = 500\nsim.speed_max = 3")
        assert cfg.area == (500.0, 1000.0)
        assert cfg.speed_range == (0.0, 3.0)

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config_text(
            "\n# full line comment\nsim.n_vehicles = 3  # trailing\n\n")
        assert cfg.n_vehicles == 3

    def test_readme_example_parses(self):
        readme = README.read_text(encoding="utf-8")
        example = readme.split("### Config files", 1)[1].split("```ini\n", 1)[1]
        cfg = parse_config_text(example.split("```", 1)[0])
        assert cfg.n_vehicles == 30
        assert cfg.halts == ((7, 4.2),)

    def test_readme_config_section_names_every_key(self):
        readme = README.read_text(encoding="utf-8")
        section = readme.split("### Config files", 1)[1].split("\n## ", 1)[0]
        assert [key for key in sorted(KNOWN_KEYS) if key not in section] == []

    def test_crypto_costs_with_overrides(self):
        cfg = parse_config_text(
            "sim.n_vehicles = 2\nsim.crypto_costs = on\n"
            "sim.cost_param_gen = 2.5\n")
        assert cfg.crypto_costs is not None
        assert cfg.crypto_costs.param_gen == 2.5
        assert cfg.crypto_costs.sender_secret == pytest.approx(0.049069788)


class TestRejection:
    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError, match="sim.n_vehicels"):
            parse_config_text("sim.n_vehicels = 2")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("sim.n_vehicles = 2\nsim.n_vehicles = 3")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("sim.n_vehicles 2")

    def test_bad_value_type_rejected(self):
        with pytest.raises(ConfigError, match="sim.n_vehicles"):
            parse_config_text("sim.n_vehicles = lots")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="sim.n_vehicles"):
            parse_config_text("sim.duration = 5")

    @pytest.mark.parametrize("key", ["sim.mobility", "sim.dh_mode"])
    def test_bad_word(self, key):
        with pytest.raises(ConfigError, match=key):
            parse_config_text(f"sim.n_vehicles = 2\n{key} = teleport")

    def test_cost_override_requires_costs_enabled(self):
        with pytest.raises(ConfigError, match="crypto_costs"):
            parse_config_text("sim.n_vehicles = 2\nsim.cost_param_gen = 1.0")

    def test_malformed_placements(self):
        with pytest.raises(ConfigError, match="placements"):
            parse_config_text("sim.n_vehicles = 1\nsim.placements = 1,2,3")

    def test_semantic_validation_applied(self):
        with pytest.raises(ConfigError):
            parse_config_text("sim.n_vehicles = 2\nnode.beacon_interval = 0")

    @pytest.mark.parametrize("text, message", [
        ("sim.n_vehicles = lots\nsim.bogus = 1",
         "line 1: key 'sim.n_vehicles': expected int, got 'lots'"),
        ("sim.n_vehicles = 2\nsim.halts = 1:x",
         "line 2: key 'sim.halts': expected float, got 'x'"),
    ])
    def test_the_first_faulty_line_is_named(self, text, message):
        with pytest.raises(ConfigError) as info:
            parse_config_text(text)
        assert str(info.value) == message


# Each key, a valid value other than its default, the field it must set
# (a SimConfig field, then a NodeConfig or CryptoCosts field or a pair
# half) and what that field must then hold. Written out here rather than
# read from the parser's table, so that a row of the table that points
# at the wrong field fails.
REACH = {
    "sim.n_vehicles": ("3", ("n_vehicles",), 3),
    "sim.area_width": ("500", ("area", 0), 500.0),
    "sim.area_height": ("600", ("area", 1), 600.0),
    "sim.radio_range": ("300", ("radio_range",), 300.0),
    "sim.speed_min": ("1", ("speed_range", 0), 1.0),
    "sim.speed_max": ("5", ("speed_range", 1), 5.0),
    "sim.mobility": ("random_waypoint", ("mobility",), Mobility.RANDOM_WAYPOINT),
    "sim.duration": ("20", ("duration",), 20.0),
    "sim.loss_rate": ("0.1", ("loss_rate",), 0.1),
    "sim.prop_delay": ("0.002", ("prop_delay",), 0.002),
    "sim.seed": ("7", ("seed",), 7),
    "sim.dh_bits": ("64", ("dh_bits",), 64),
    "sim.dh_mode": ("per_node", ("dh_mode",), DhMode.PER_NODE_PARAMS),
    "sim.crypto_costs": ("on", ("crypto_costs",), CryptoCosts()),
    "sim.cost_param_gen": ("2.5", ("crypto_costs", "param_gen"), 2.5),
    "sim.cost_sender_secret": ("0.5", ("crypto_costs", "sender_secret"), 0.5),
    "sim.cost_receiver_secret": ("0.25", ("crypto_costs", "receiver_secret"), 0.25),
    "sim.placements": ("100,100; 200,100", ("placements",), ((100.0, 100.0), (200.0, 100.0))),
    "sim.halts": ("2:8.0", ("halts",), ((2, 8.0),)),
    "sim.probes": ("5.0:1:200:100", ("probes",),
                   (RouteProbe(5.0, 1, Position(200.0, 100.0)),)),
    "node.beacon_interval": ("2.0", ("node_config", "beacon_interval"), 2.0),
    "node.expiry_multiplier": ("3.0", ("node_config", "expiry_multiplier"), 3.0),
    "node.adaptive": ("on", ("node_config", "adaptive"), True),
    "node.target_degree": ("4", ("node_config", "target_degree"), 4),
    "node.adapt_gain": ("0.25", ("node_config", "adapt_gain"), 0.25),
    "node.interval_min": ("0.2", ("node_config", "interval_min"), 0.2),
    "node.interval_max": ("20", ("node_config", "interval_max"), 20.0),
}
# What a key's value above needs besides "sim.n_vehicles = 2".
CONTEXT = {
    "sim.speed_min": {"sim.speed_max": "5"},
    **{key: {"sim.crypto_costs": "on"} for key in REACH if key.startswith("sim.cost_")},
}


def with_field(obj, path, value):
    """``obj`` with the field or tuple half at ``path`` set to ``value``."""
    head, *rest = path
    if rest:
        value = with_field(getattr(obj, head), rest, value)
    if isinstance(head, int):
        return obj[:head] + (value,) + obj[head + 1:]
    return replace(obj, **{head: value})


@pytest.mark.parametrize("key", sorted(KNOWN_KEYS | REACH.keys()))
def test_each_key_sets_its_own_field(key):
    raw, path, value = REACH[key]
    lines = {"sim.n_vehicles": "2", **CONTEXT.get(key, {})}
    base = parse_config_text("\n".join(f"{k} = {v}" for k, v in lines.items()))
    lines[key] = raw
    cfg = parse_config_text("\n".join(f"{k} = {v}" for k, v in lines.items()))
    assert cfg == with_field(base, path, value) != base


# ----------------------------------------------------------------------
# every config text either runs or is rejected with exit code 2

EDGE_WORDS = ["nan", "inf", "-inf", "-0", "0", "1", "0.5", "-1", "1e308", "-1e308",
              "5e-324", "true", "off", "x", "", "global", "per_node",
              "constant_velocity", "random_waypoint"]
NUMBER_TEXT = st.one_of(st.sampled_from(EDGE_WORDS), st.integers(0, 20).map(str),
                        st.floats(0.0, 1000.0).map(repr), st.integers().map(str),
                        st.floats().map(repr))
# Structured values: items of one to five fields, some of the wrong arity.
ITEMS = st.sampled_from([",", ":"]).flatmap(lambda sep: st.lists(
    st.lists(NUMBER_TEXT, min_size=1, max_size=5).map(sep.join), max_size=4)).map("; ".join)
ANY_VALUE = st.one_of(NUMBER_TEXT, ITEMS, st.text(max_size=10))


def _items(sep: str, *fields):
    item = st.tuples(*fields).map(lambda parts: sep.join(map(str, parts)))
    return st.lists(item, max_size=4).map("; ".join)


SMALL = st.floats(0.0, 600.0).map(repr)
# Sides and coordinates reach past 3.4028234663852886e38, the largest
# single, which no beacon can carry.
WIDE = st.one_of(SMALL, st.sampled_from(["3.4028234663852886e38", "3.4028235677973366e38",
                                          "-3.4028235677973366e38", "1e300"]))
# Values of the right shape for the keys that are not plain numbers.
SHAPED = {
    "sim.seed": st.integers().map(str),
    "node.target_degree": st.integers(-1, 20).map(str),
    "node.adaptive": st.sampled_from(["true", "off", "yes", "0"]),
    "sim.crypto_costs": st.sampled_from(["true", "off", "yes", "0"]),
    "sim.mobility": st.sampled_from(["constant_velocity", "random_waypoint"]),
    "sim.dh_mode": st.sampled_from(["global", "per_node"]),
    "sim.area_width": WIDE,
    "sim.area_height": WIDE,
    "sim.placements": _items(",", WIDE, WIDE),
    "sim.halts": _items(":", st.integers(0, 5), SMALL),
    "sim.probes": _items(":", SMALL, st.integers(0, 5), SMALL, SMALL),
}


def mostly(good, bad):
    """``good`` nine times in ten, so that many texts parse and run."""
    return st.integers(0, 9).flatmap(lambda i: bad if i == 9 else good)


# Only these three are bounded, so that each example runs in well under a
# second: vehicle count and duration scale the run, dh_bits the prime search.
# A valid duration keeps clear of 0, where Hypothesis's tiny floats would
# end every run before its first beacon.
BOUNDED = {
    "sim.n_vehicles": mostly(st.integers(1, 4).map(str),
                             st.sampled_from(["0", "-1", "nan", "1e308", "2.5", "x"])),
    "sim.duration": mostly(st.floats(1.0, 3.0).map(repr),
                           st.sampled_from(["-1", "nan", "inf", "-inf", "-0", "0", "x"])),
    "sim.dh_bits": mostly(st.integers(16, 48).map(str),
                          st.sampled_from(["8", "nan", "inf", "1e308", "x"])),
}
# Always present; cost overrides are rejected without it.
ALWAYS = [*BOUNDED, "sim.crypto_costs"]
OTHER_KEYS = sorted(KNOWN_KEYS - set(ALWAYS))
# The default 3.51-s parameter generation puts every first beacon past a
# run of at most 3 s, so texts with costs on get a small one.
COSTS_ON = ("true", "on", "yes", "1")
SMALL_COST = st.floats(0.0, 0.5).map(repr)


def value_text(key: str):
    if key in BOUNDED:
        return BOUNDED[key]
    return mostly(SHAPED.get(key, NUMBER_TEXT), ANY_VALUE)


@st.composite
def config_lines(draw):
    keys = [*ALWAYS, *draw(st.lists(st.sampled_from(OTHER_KEYS), max_size=5, unique=True))]
    values = {key: draw(value_text(key)) for key in keys}
    if values["sim.crypto_costs"] in COSTS_ON:
        values["sim.cost_param_gen"] = draw(mostly(SMALL_COST, ANY_VALUE))
    lines = [f"{key} = {value}" for key, value in values.items()]
    # now and then a repeated key, or a line that is no key = value pair
    extra = draw(mostly(st.just(""), st.sampled_from(["repeat", "junk"])))
    if extra == "repeat":
        key = draw(st.sampled_from(list(values)))
        lines.append(f"{key} = {draw(value_text(key))}")
    elif extra == "junk":
        lines.append(draw(st.text(max_size=20)))
    return "\n".join(draw(st.permutations(lines))) + "\n"


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(config_lines())
def test_any_config_text_runs_or_exits_2(text):
    try:
        parse_config_text(text)
        parsed = True
    except ConfigError:
        parsed = False
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "any.cfg"
        cfg.write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["run", "--config", str(cfg), "--trace", str(Path(tmp) / "t.jsonl"),
                         "--metrics", str(Path(tmp) / "m.json")])
    assert code == (0 if parsed else 2)
