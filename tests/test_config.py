import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from beaconkx.cli import main
from beaconkx.codec import Position
from beaconkx.config import KNOWN_KEYS, parse_config_text
from beaconkx.protocol import DhMode
from beaconkx.sim import ConfigError, Mobility

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
# Values of the right shape for the keys that are not plain numbers.
SHAPED = {
    "sim.seed": st.integers().map(str),
    "node.target_degree": st.integers(-1, 20).map(str),
    "node.adaptive": st.sampled_from(["true", "off", "yes", "0"]),
    "sim.crypto_costs": st.sampled_from(["true", "off", "yes", "0"]),
    "sim.mobility": st.sampled_from(["constant_velocity", "random_waypoint"]),
    "sim.dh_mode": st.sampled_from(["global", "per_node"]),
    "sim.placements": _items(",", SMALL, SMALL),
    "sim.halts": _items(":", st.integers(0, 5), SMALL),
    "sim.probes": _items(":", SMALL, st.integers(0, 5), SMALL, SMALL),
}


def mostly(good, bad):
    """``good`` nine times in ten, so that many texts parse and run."""
    return st.integers(0, 9).flatmap(lambda i: bad if i == 9 else good)


# Only these three are bounded, so that each example runs in well under a
# second: vehicle count and duration scale the run, dh_bits the prime search.
BOUNDED = {
    "sim.n_vehicles": mostly(st.integers(1, 4).map(str),
                             st.sampled_from(["0", "-1", "nan", "1e308", "2.5", "x"])),
    "sim.duration": mostly(st.floats(0.0, 3.0, exclude_min=True).map(repr),
                           st.sampled_from(["-1", "nan", "inf", "-inf", "-0", "x"])),
    "sim.dh_bits": mostly(st.integers(16, 48).map(str),
                          st.sampled_from(["8", "nan", "inf", "1e308", "x"])),
}
# Always present; cost overrides are rejected without it.
ALWAYS = [*BOUNDED, "sim.crypto_costs"]
OTHER_KEYS = sorted(KNOWN_KEYS - set(ALWAYS))


def value_text(key: str):
    if key in BOUNDED:
        return BOUNDED[key]
    return mostly(SHAPED.get(key, NUMBER_TEXT), ANY_VALUE)


@st.composite
def config_lines(draw):
    keys = [*ALWAYS, *draw(st.lists(st.sampled_from(OTHER_KEYS), max_size=5, unique=True))]
    lines = [f"{key} = {draw(value_text(key))}" for key in keys]
    # now and then a repeated key, or a line that is no key = value pair
    extra = draw(mostly(st.just(""), st.sampled_from(["repeat", "junk"])))
    if extra == "repeat":
        key = draw(st.sampled_from(keys))
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
