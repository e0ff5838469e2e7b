import codecs
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from beaconkx import cli
from beaconkx.cli import REFERENCE_NS, golden_vector_lines, main, run_bench
from beaconkx.dh import MAX_MODULUS_BITS
from beaconkx.sim import MAX_PRIME_SEARCHES, MAX_SAMPLES, MAX_VEHICLES

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).parent.parent / "src"

TWO_NODE_CFG = """
sim.n_vehicles = 2
sim.placements = 100,100; 200,100
sim.duration = 5
sim.seed = 1
sim.dh_bits = 64
"""


@pytest.fixture
def two_node_cfg(tmp_path):
    path = tmp_path / "two_nodes.cfg"
    path.write_text(TWO_NODE_CFG)
    return path


class TestRunCommand:
    def test_happy_path_writes_outputs(self, tmp_path, two_node_cfg, capsys):
        trace = tmp_path / "out.jsonl"
        metrics = tmp_path / "m.json"
        code = main(["run", "--config", str(two_node_cfg), "--seed", "1",
                     "--trace", str(trace), "--metrics", str(metrics)])
        assert code == 0
        assert trace.exists() and metrics.exists()
        payload = json.loads(metrics.read_text())
        assert payload["handshakes_completed"] == 2

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "missing.cfg")])
        assert code == 2
        assert "missing.cfg" in capsys.readouterr().err

    def test_bad_config_names_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("sim.n_vehicles = 2\nsim.raido_range = 5\n")
        code = main(["run", "--config", str(bad)])
        assert code == 2
        assert "sim.raido_range" in capsys.readouterr().err

    @pytest.mark.parametrize("lines, key", [
        ("sim.radio_range = nan", "sim.radio_range"),
        ("sim.prop_delay = nan", "sim.prop_delay"),
        ("sim.duration = nan", "sim.duration"),
        ("sim.area_width = inf", "sim.area_width"),
        ("sim.speed_max = inf", "sim.speed_max"),
        ("sim.crypto_costs = on\nsim.cost_param_gen = -5", "sim.cost_param_gen"),
        ("sim.crypto_costs = on\nsim.cost_receiver_secret = nan",
         "sim.cost_receiver_secret"),
    ])
    def test_non_finite_or_negative_value_exits_2(self, tmp_path, capsys,
                                                  lines, key):
        bad = tmp_path / "bad.cfg"
        bad.write_text(TWO_NODE_CFG + lines + "\n")
        code = main(["run", "--config", str(bad),
                     "--trace", str(tmp_path / "t.jsonl"),
                     "--metrics", str(tmp_path / "m.json")])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "t.jsonl").exists()

    @pytest.mark.parametrize("line, key", [
        ("sim.placements = 1,2; a,b", "sim.placements"),
        ("sim.halts = x:1", "sim.halts"),
        ("sim.probes = 1:1:a:b", "sim.probes"),
        ("sim.dh_bits = 8", "sim.dh_bits"),
        ("node.adaptive = true\nnode.adapt_gain = nan", "node.adapt_gain"),
        ("node.expiry_multiplier = nan", "node.expiry_multiplier"),
        ("node.beacon_interval = nan", "node.beacon_interval"),
        ("node.interval_min = nan", "node.interval_min"),
        ("node.interval_max = inf", "node.interval_max"),
        ("sim.speed_max = 1e308", "sim.speed_max"),
        ("sim.speed_max = 1\nsim.area_width = 1e-300", "sim.speed_max"),
        ("sim.speed_max = 1\nsim.placements = 1e300,0; 0,0", "sim.placements"),
        # coordinates past the largest single have no encoding
        ("sim.placements = 1e300,0; 0,0", "sim.placements"),
        ("sim.placements = 0,-3.4028235677973366e38; 0,0", "sim.placements"),
        ("sim.area_width = 1e39\nsim.area_height = 1e39", "sim.area_width"),
        ("sim.area_height = 3.4028235677973366e38", "sim.area_height"),
        ("node.beacon_interval = 0", "node.beacon_interval"),
        ("node.expiry_multiplier = 1", "node.expiry_multiplier"),
        ("node.target_degree = 0", "node.target_degree"),
        ("node.adapt_gain = -1", "node.adapt_gain"),
        ("node.interval_min = 2", "node.interval_min"),
        ("sim.halts = 2:1; 2:5", "sim.halts"),
    ])
    def test_malformed_value_exits_2(self, tmp_path, capsys, line, key):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"sim.n_vehicles = 2\nsim.duration = 5\n{line}\n")
        code = main(["run", "--config", str(bad),
                     "--trace", str(tmp_path / "t.jsonl"),
                     "--metrics", str(tmp_path / "m.json")])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "t.jsonl").exists()

    @pytest.mark.parametrize("lines, key", [
        ("sim.n_vehicles = 2\nsim.dh_bits = 64\nsim.duration = 1e308", "sim.duration"),
        # Few timer events, but one metrics sample per simulated second.
        (f"sim.n_vehicles = 2\nsim.dh_bits = 64\nsim.duration = {10 * MAX_SAMPLES}\n"
         f"node.beacon_interval = {MAX_SAMPLES}\nnode.interval_max = {MAX_SAMPLES}",
         "sim.duration"),
        # Nothing to simulate, but every vehicle is built first.
        (f"sim.n_vehicles = {MAX_VEHICLES + 1}\nsim.dh_bits = 64\nsim.duration = 1e-6",
         "sim.n_vehicles"),
        (f"sim.n_vehicles = 2\nsim.duration = 1\nsim.dh_bits = {MAX_MODULUS_BITS + 1}",
         "sim.dh_bits"),
        # Few events, but one 2048-bit prime search per vehicle in set-up.
        ("sim.n_vehicles = 16\nsim.dh_mode = per_node\nsim.dh_bits = 2048\n"
         "sim.duration = 1e-6", "sim.dh_bits"),
        # One group, but 10^5 2048-bit key pairs in set-up.
        (f"sim.n_vehicles = {MAX_VEHICLES}\nsim.dh_bits = 2048\nsim.duration = 1e-6",
         "sim.n_vehicles"),
    ])
    def test_endless_duration_exits_2(self, tmp_path, lines, key):
        # In a subprocess, so that a missing guard fails by timeout
        # instead of hanging the suite.
        cfg = tmp_path / "endless.cfg"
        cfg.write_text(lines + "\n")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run(
            [sys.executable, "-m", "beaconkx", "run", "--config", str(cfg),
             "--trace", str(tmp_path / "t.jsonl"), "--metrics", str(tmp_path / "m.json")],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert key in done.stderr
        assert not (tmp_path / "t.jsonl").exists()

    def test_repeat_runs_byte_identical(self, tmp_path, two_node_cfg):
        paths = []
        for name in ("a", "b"):
            trace = tmp_path / f"{name}.jsonl"
            metrics = tmp_path / f"{name}.json"
            assert main(["run", "--config", str(two_node_cfg),
                         "--trace", str(trace), "--metrics", str(metrics)]) == 0
            paths.append((trace, metrics))
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path, two_node_cfg):
        out = []
        for seed in ("1", "2"):
            trace = tmp_path / f"s{seed}.jsonl"
            assert main(["run", "--config", str(two_node_cfg), "--seed", seed,
                         "--trace", str(trace),
                         "--metrics", str(tmp_path / f"s{seed}.json")]) == 0
            out.append(trace.read_bytes())
        assert out[0] != out[1]


# lossy, mobile, one group per node, run long enough to sample tables
REPLAY_CFG = """
sim.n_vehicles = 10
sim.area_width = 150
sim.area_height = 150
sim.mobility = random_waypoint
sim.speed_min = 5
sim.speed_max = 15
sim.loss_rate = 0.2
sim.duration = 6
sim.seed = 10
sim.dh_bits = 64
sim.dh_mode = per_node
"""


class TestMetricsCommand:
    @pytest.fixture
    def saved_run(self, tmp_path):
        cfg = tmp_path / "replay.cfg"
        cfg.write_text(REPLAY_CFG)
        trace, metrics = tmp_path / "out.jsonl", tmp_path / "m.json"
        assert main(["run", "--config", str(cfg), "--trace", str(trace),
                     "--metrics", str(metrics)]) == 0
        return cfg, trace, metrics

    def test_replay_equals_metrics_of_the_run(self, saved_run, capsys):
        cfg, trace, metrics = saved_run
        capsys.readouterr()
        assert main(["metrics", "--config", str(cfg), "--trace", str(trace)]) == 0
        assert capsys.readouterr().out == metrics.read_text()

    @pytest.mark.parametrize("bad_line", [
        '{"t": 1.0, "ev": "beacon_tx"',                       # cut short
        '{"t": 1.0, "ev": "beacon_rx", "node": 1, "peer": 2}',  # no pos
        '{"t": "x", "ev": "ack_rx", "node": 1, "peer": 2, '
        '"pos": [0.0, 0.0], "extra": {}}',
        '{"t": 1.0, "ev": "ack_tx", "node": 1, "peer": 2, '
        '"pos": [0.0, 0.0], "extra": {}}',                     # no len
        '[1, 2, 3]',
        '{"t": 0.0, "ev": "beacon_rx", "node": 1, "peer": 2, '
        '"pos": [0.0, 0.0], "extra": {}}',                     # time goes back
        '{"t": NaN, "ev": "beacon_rx", "node": 1, "peer": 2, '
        '"pos": [0.0, 0.0], "extra": {}}',
        # well-formed JSON of the wrong types, each read leniently before
        '{"t": 1.0, "ev": "beacon_rx", "node": 1.9, "peer": 2.5, '
        '"pos": [0.0, 0.0], "extra": {}}',
        '{"t": "1.5", "ev": "beacon_rx", "node": 1, "peer": 2, '
        '"pos": [0.0, 0.0], "extra": {}}',
        '{"t": 1.0, "ev": "beacon_rx", "node": true, "peer": 2, '
        '"pos": [0.0, 0.0], "extra": {}}',
        '{"t": 1.0, "ev": "beacon_rx", "node": 1, "peer": 2, '
        '"pos": ["1e3", 0.0], "extra": {}}',
        '{"t": 1.0, "ev": "beacon_tx", "node": 1, "peer": null, '
        '"pos": [0.0, 0.0], "extra": {"len": 19.7}}',
        '{"t": 1.0, "ev": "beacon_tx", "node": 1, "peer": null, '
        '"pos": [0.0, 0.0], "extra": {"len": "19"}}',
        '{"t": 1.0, "ev": "beacon_tx", "node": 1, "peer": null, '
        '"pos": [0.0, 0.0], "extra": {"len": -5}}',            # read by the fast path
        '{"t":1.0,"ev":"beacon_tx","node":1,"peer":null,'
        '"pos":[0.0,0.0],"extra":{"len":-5}}',
        '{"t": 1.0, "ev": "beacon_rx", "node": 1, "peer": 2, '
        '"pos": [0.0, 0.0, 0.0], "extra": {}}',
        '{"t": 1.0, "ev": "beacon_tx", "node": 1, "peer": null, '
        '"pos": [0.0, 0.0], "extra": [["len", 19]]}',
        '{"t": Infinity, "ev": "beacon_rx", "node": 1, "peer": 2, '
        '"pos": [0.0, 0.0], "extra": {}}',
        '{"t": 1.0, "ev": "beacon_rx", "node": 1, "peer": 2, '
        '"pos": [NaN, 0.0], "extra": {}}',
        '{"t": 1.0, "ev": 7, "node": 1, "peer": 2, '
        '"pos": [0.0, 0.0], "extra": {}}',
        '{"t": 1.0, "ev": "key_established", "node": 1, "peer": null, '
        '"pos": [0.0, 0.0], "extra": {}}',
        pytest.param('{"t": 1.0, "ev": "beacon_rx", "node": 1, "peer": 2, '
                     '"pos": [0.0, 0.0], "extra": {"a": ' + "[" * 100_000 + '}}',
                     id="deeply-nested-extra"),
    ])
    def test_malformed_line_exits_2_naming_it(self, saved_run, capsys, bad_line):
        cfg, trace, _ = saved_run
        lines = trace.read_text().splitlines()
        lines[4] = bad_line
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["metrics", "--config", str(cfg), "--trace", str(trace)]) == 2
        assert "line 5" in capsys.readouterr().err

    def test_unreadable_line_exits_2_naming_it(self, saved_run, capsys):
        cfg, trace, _ = saved_run
        raw = trace.read_bytes().split(b"\n")
        raw[2] = raw[2][:10] + b"\xff\xfe" + raw[2][10:]
        trace.write_bytes(b"\n".join(raw))
        capsys.readouterr()
        assert main(["metrics", "--config", str(cfg), "--trace", str(trace)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_missing_trace_exits_2(self, tmp_path, two_node_cfg, capsys):
        code = main(["metrics", "--config", str(two_node_cfg),
                     "--trace", str(tmp_path / "missing.jsonl")])
        assert code == 2
        assert "missing.jsonl" in capsys.readouterr().err


class TestModuleEntryPoint:
    def test_python_m_matches_main(self, capsys):
        assert main(["vectors", "--emit"]) == 0
        expected = capsys.readouterr().out
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run([sys.executable, "-m", "beaconkx", "vectors", "--emit"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0
        assert done.stdout == expected


class TestBenchCommand:
    def test_tiny_parameters_complete_quickly(self, capsys):
        import time
        start = time.time()
        code = main(["bench", "--bits", "16", "--trials", "1", "--seed", "1"])
        assert code == 0
        assert time.time() - start < 1.0
        out = capsys.readouterr().out
        assert "parameter + public value generation" in out
        assert "handshake total" in out

    @pytest.mark.parametrize("flags", [
        ["--bits", "8"],
        ["--bits", str(MAX_MODULUS_BITS + 1)],
        ["--trials", "0"],
    ])
    def test_bad_flags_exit_2(self, flags, capsys):
        assert main(["bench", *flags]) == 2

    @pytest.mark.parametrize("flags", [
        ["--bits", "2048", "--trials", "1000"],
        ["--bits", "16", "--trials", str(MAX_PRIME_SEARCHES + 1)],
    ])
    def test_too_many_trials_exit_2_before_any_search(self, flags, monkeypatch, capsys):
        def no_search(*_args):
            raise AssertionError("prime search started")

        monkeypatch.setattr(cli, "generate_dh_params", no_search)
        assert main(["bench", *flags]) == 2
        assert "--trials" in capsys.readouterr().err

    def test_default_trials_at_the_largest_group_are_accepted(self, monkeypatch):
        ran = []

        def stub(bits, trials, seed):
            ran.append((bits, trials))
            return cli.BenchResult(bits, trials, 1, 1, 1)

        monkeypatch.setattr(cli, "run_bench", stub)
        assert main(["bench", "--bits", str(MAX_MODULUS_BITS)]) == 0
        assert ran == [(MAX_MODULUS_BITS, 10)]

    def test_result_object_consistency(self):
        result = run_bench(bits=32, trials=3, seed=7)
        assert result.handshake_total_ns == (
            result.param_gen_ns + result.initiator_secret_ns
            + result.responder_secret_ns)
        assert result.param_gen_ns > 0

    def test_a_table_secret_unequal_to_pow_fails_the_bench(self, monkeypatch):
        real = cli.compute_shared_secret

        def off_by_one_from_the_table(params, own, peer, peer_private=None):
            secret = real(params, own, peer, peer_private)
            return secret if peer_private is None else secret + 1

        monkeypatch.setattr(cli, "compute_shared_secret", off_by_one_from_the_table)
        with pytest.raises(RuntimeError, match="key agreement failed"):
            run_bench(bits=32, trials=1, seed=7)

    def test_reference_column_is_the_default_crypto_costs(self):
        assert REFERENCE_NS == {"param_gen": 3509800629,
                                "initiator_secret": 49069788,
                                "responder_secret": 36127233}


class TestVectorsCommand:
    def test_emit_includes_reference_beacon(self, capsys):
        assert main(["vectors", "--emit"]) == 0
        out = capsys.readouterr().out
        assert "00 00 00 01 01 01 00 13 00 00 00 00 00 00 00 00 00 01 08" in out

    def test_emit_matches_shipped_fixture(self, capsys):
        assert main(["vectors", "--emit"]) == 0
        emitted = capsys.readouterr().out.strip().splitlines()
        fixture_lines = [
            line.strip() for line in
            (FIXTURES / "golden_packets.hex").read_text().splitlines()
            if line.strip() and not line.lstrip().startswith("#")
        ]
        assert emitted == fixture_lines

    def test_check_shipped_fixture_passes(self):
        assert main(["vectors", "--check",
                     str(FIXTURES / "golden_packets.hex")]) == 0

    def test_corrupted_fixture_names_line(self, tmp_path, capsys):
        lines = (FIXTURES / "golden_packets.hex").read_text().splitlines()
        # corrupt the packet_len octet of the first non-comment line
        for index, line in enumerate(lines):
            if line.strip() and not line.lstrip().startswith("#"):
                tokens = line.split()
                tokens[7] = "ff"
                lines[index] = " ".join(tokens)
                corrupted_lineno = index + 1
                break
        bad = tmp_path / "corrupt.hex"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["vectors", "--check", str(bad)]) == 2
        assert f"line {corrupted_lineno}" in capsys.readouterr().err

    def test_non_hex_line_rejected(self, tmp_path, capsys):
        bad = tmp_path / "junk.hex"
        bad.write_text("zz yy xx\n")
        assert main(["vectors", "--check", str(bad)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_missing_vector_file_exits_2(self, tmp_path, capsys):
        assert main(["vectors", "--check", str(tmp_path / "nope.hex")]) == 2
        assert "nope.hex" in capsys.readouterr().err

    def test_golden_lines_are_self_consistent(self):
        from beaconkx.cli import check_vector_lines
        assert check_vector_lines("\n".join(golden_vector_lines())) is None


def reading(command: str, path: Path, tmp_path: Path) -> list[str]:
    """Arguments for ``command`` reading ``path`` as its config or vector file."""
    return {
        "run": ["run", "--config", str(path), "--trace", str(tmp_path / "t.jsonl"),
                "--metrics", str(tmp_path / "m.json")],
        "metrics": ["metrics", "--config", str(path), "--trace", str(tmp_path / "t.jsonl")],
        "vectors": ["vectors", "--check", str(path)],
    }[command]


@pytest.mark.parametrize("command", ["run", "metrics", "vectors"])
def test_non_utf8_input_file_exits_2_naming_it_and_the_line(tmp_path, capsys, command):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"sim.n_vehicles = 2\n# caf\xe9\n")
    assert main(reading(command, bad, tmp_path)) == 2
    err = capsys.readouterr().err
    assert "latin1.txt" in err and "line 2" in err


def test_utf8_bom_before_an_input_file_is_skipped(tmp_path, capsys):
    """A config or trace saved with a byte order mark reads as without it."""
    plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
    plain.write_text(TWO_NODE_CFG.lstrip())
    bom.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
    traces = []
    for cfg in (plain, bom):
        trace = tmp_path / f"{cfg.stem}.jsonl"
        assert main(["run", "--config", str(cfg), "--trace", str(trace),
                     "--metrics", str(tmp_path / "m.json")]) == 0
        traces.append(trace.read_bytes())
    assert traces[0] == traces[1]
    bom_trace = tmp_path / "bom-trace.jsonl"
    bom_trace.write_bytes(codecs.BOM_UTF8 + traces[0])
    capsys.readouterr()
    assert main(["metrics", "--config", str(bom), "--trace", str(bom_trace)]) == 0
    assert capsys.readouterr().out == (tmp_path / "m.json").read_text()


def test_an_invisible_character_in_a_key_is_escaped(tmp_path, capsys):
    """A zero-width space in a key shows as its escape, so the error does
    not name a key that looks valid."""
    cfg = tmp_path / "zwsp.cfg"
    cfg.write_text("sim.n_vehicles\u200b = 2\n", encoding="utf-8")
    assert main(reading("run", cfg, tmp_path)) == 2
    assert capsys.readouterr().err == (
        f"error: {cfg}: line 1: unknown key 'sim.n_vehicles\\u200b'\n")


@pytest.mark.parametrize("command, reason", [
    ("run", "line 2: unknown key 'sim.bogus'"),
    ("metrics", "line 2: unknown key 'sim.bogus'"),
    ("vectors", "line 1: not a space-separated hex dump"),
])
def test_bad_input_line_exits_2_naming_its_file(tmp_path, capsys, command, reason):
    bad = tmp_path / "bad.txt"
    bad.write_text("sim.n_vehicles = 2\nsim.bogus = 1\n")
    assert main(reading(command, bad, tmp_path)) == 2
    assert capsys.readouterr().err == f"error: {bad}: {reason}\n"


@pytest.mark.parametrize("command, reason", [
    ("run", "line 2: unknown key 'sim.bogus'"),
    ("metrics", "line 2: unknown key 'sim.bogus'"),
    ("vectors", "line 2: not a space-separated hex dump"),
])
@pytest.mark.parametrize("first", ["# a\x0cb\n", "# a\u2028b\n", "# a\r\n"])
def test_input_line_ends_at_newline_only(tmp_path, capsys, command, reason, first):
    """Line numbers count line feeds, as the non-UTF-8 error does; a form
    feed or U+2028 in a comment stays in the comment."""
    bad = tmp_path / "bad.txt"
    bad.write_bytes((first + "sim.bogus = 1\n").encode())
    assert main(reading(command, bad, tmp_path)) == 2
    assert capsys.readouterr().err == f"error: {bad}: {reason}\n"


class TestUsage:
    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
