"""Tests of the benchmark's own checks: each passes on real output and
rejects an input corrupted for it.

    python3 -m pytest -q perfbench/check_tests.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest
import sympy

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import scenes  # noqa: E402
import tracing  # noqa: E402
from beaconkx import protocol, sim  # noqa: E402
from beaconkx.config import parse_config_text  # noqa: E402

STATIC = {
    "sim.n_vehicles": 5,
    "sim.placements": "100,100; 200,100; 100,200; 200,200; 150,150",
    "sim.halts": "5:2.5", "sim.duration": 10, "sim.loss_rate": 0,
    "sim.dh_bits": 64, "sim.seed": 3,
}
PER_NODE = run.KEY_SLOT_PROBE


def simulate(values: dict):
    config = parse_config_text(scenes.config_text(values))
    simulation = sim.Simulation(config)
    trace, metrics = simulation.run()
    return config, simulation, list(trace.records), metrics.to_dict()


@pytest.fixture(scope="module")
def static():
    return simulate(STATIC)


@pytest.fixture(scope="module")
def per_node():
    return simulate(PER_NODE)


def replace_first(records, ev: str, **changes):
    """Copy of ``records`` with the first ``ev`` record changed."""
    index = next(i for i, r in enumerate(records) if r.ev == ev)
    out = list(records)
    out[index] = dataclasses.replace(records[index], **changes)
    return out


def test_key_agreement(static, per_node):
    for _config, simulation, records, _metrics in (static, per_node):
        keys = run.key_material(simulation)
        assert checks.key_agreement(records, keys, {}) == []
        first = next(r for r in records if r.ev == "key_established")
        tampered = replace_first(records, "key_established",
                                 extra={"key": "00" * 15 + "01"})
        assert checks.key_agreement(tampered, keys, {})
        node = keys[first.node]
        bad_pair = dataclasses.replace(node.own, public=node.own.public + 1)
        bad_keys = dict(keys)
        bad_keys[first.node] = dataclasses.replace(node, own=bad_pair)
        assert checks.key_agreement(records, bad_keys, {})


def test_primality():
    p = sympy.prevprime(1 << 64)
    assert checks.primality([checks.Group(p, 5)], 64, sympy.isprime) == []
    assert checks.primality([checks.Group(p - 2 * 3, 5)], 64, sympy.isprime)  # composite
    assert checks.primality([checks.Group(sympy.prevprime(1 << 63), 5)], 64, sympy.isprime)
    assert checks.primality([checks.Group(p, p)], 64, sympy.isprime)


def test_packet_lengths(static, per_node):
    for _config, simulation, records, _metrics in (static, per_node):
        keys = run.key_material(simulation)
        per = simulation.config.dh_mode is protocol.DhMode.PER_NODE_PARAMS
        assert checks.packet_lengths(records, keys, per) == []
        ack = next(r for r in records if r.ev == "ack_tx")
        assert checks.packet_lengths(
            replace_first(records, "ack_tx", extra={"len": ack.extra["len"] + 1}), keys, per)
        beacon = next(r for r in records if r.ev == "beacon_tx")
        assert checks.packet_lengths(
            replace_first(records, "beacon_tx", extra=dict(beacon.extra, version=3)), keys, per)
        assert checks.packet_lengths(records, keys, not per)


def test_counters(static):
    _config, _simulation, records, metrics = static
    assert checks.counters(records, metrics) == []
    for name in ("beacons_sent", "acks_sent", "bytes_on_air", "handshakes_completed"):
        assert checks.counters(records, dict(metrics, **{name: metrics[name] + 1}))
    assert checks.counters([r for r in records if r.ev != "ack_tx"], metrics)


def test_reception_range(static):
    config, _simulation, records, _metrics = static
    args = (config.radio_range, config.prop_delay, 0.0)
    assert checks.reception_range(records, *args) == []
    far = replace_first(records, "beacon_rx", pos=(5000.0, 5000.0))
    assert checks.reception_range(far, *args)
    orphan = [r for r in records if r.ev != "beacon_tx" or r.node != 1]
    assert checks.reception_range(orphan, *args)


def test_dense_receivers(static):
    config, _simulation, records, _metrics = static
    args = (config.radio_range, config.prop_delay, config.duration, dict(config.halts))
    assert checks.dense_receivers(records, *args) == []
    first_rx = next(i for i, r in enumerate(records) if r.ev == "beacon_rx")
    assert checks.dense_receivers(records[:first_rx] + records[first_rx + 1:], *args)
    first_ack = next(i for i, r in enumerate(records) if r.ev == "ack_rx")
    assert checks.dense_receivers(records[:first_ack] + records[first_ack + 1:], *args)
    # A halted node that kept hearing beacons would be an extra receiver.
    assert checks.dense_receivers(records, *args[:3], {})
    assert checks.dense_receivers(replace_first(records, "beacon_rx", pos=(1.0, 1.0)), *args)


def test_tables_exact(static):
    config, _simulation, records, metrics = static
    start, end = run.dense_exact_window(records, config, dict(config.halts))
    samples = metrics["table_samples"]
    assert checks.tables_exact(samples, start, end) == []
    inside = next(s for s in samples if start <= s["t"] <= end)
    worse = [dict(s, recall=0.9) if s is inside else s for s in samples]
    assert checks.tables_exact(worse, start, end)
    assert checks.tables_exact(samples, 100.0, 101.0)


def test_recall_after_expiry(static):
    _config, _simulation, _records, metrics = static
    samples = metrics["table_samples"]
    assert checks.recall_after_expiry(samples, 8.5)   # the halted-node fault
    mended = [dict(s, recall=1.0) for s in samples]
    assert checks.recall_after_expiry(mended, 8.5) == []
    assert checks.recall_after_expiry(mended, 99.0)


def test_final_keys_agree(static, per_node):
    _config, _simulation, records, _metrics = static
    assert checks.final_keys_agree(records) == []
    last = max(i for i, r in enumerate(records) if r.ev == "key_established")
    tampered = list(records)
    tampered[last] = dataclasses.replace(records[last], extra={"key": "ff" * 16})
    assert checks.final_keys_agree(tampered)
    expired = tampered + [dataclasses.replace(records[last], ev="neighbor_expired", extra={})]
    assert checks.final_keys_agree(expired) == []
    assert checks.final_keys_agree(per_node[2])  # the key-slot fault


def test_same_text():
    assert checks.same_text("x", "a", "a") == []
    assert checks.same_text("x", "a", "b")


def test_same_metrics(static):
    metrics = static[3]
    as_json = lambda **changes: json.dumps(dict(metrics, **changes))
    mean = metrics["handshake_latency_mean"]
    assert checks.same_metrics(as_json(), as_json()) == []
    assert checks.same_metrics(as_json(), as_json(handshake_latency_mean=mean + 2e-6)) == []
    assert checks.same_metrics(as_json(), as_json(handshake_latency_mean=mean + 1e-5))
    assert checks.same_metrics(as_json(), as_json(handshake_latency_mean=None))
    assert checks.same_metrics(as_json(), as_json(expiries=metrics["expiries"] + 1))
    assert checks.same_metrics(as_json(), as_json(table_samples=metrics["table_samples"][1:]))


def test_recorder_restores_and_times_layers(static):
    config = static[0]
    originals = (sim.deliver_in_range, vars(protocol.NodeState)["on_receive_beacon"])
    recorder = tracing.Recorder()
    with recorder.installed(sim, protocol):
        trace, _metrics = recorder.call("run", sim.Simulation(config).run)
    assert (sim.deliver_in_range, vars(protocol.NodeState)["on_receive_beacon"]) == originals
    layers = recorder.layers()
    assert trace.to_jsonl() == sim.Simulation(config).run()[0].to_jsonl()
    assert layers["protocol.beacon_rx"][0] == sum(r.ev == "beacon_rx" for r in trace)
    assert layers["sim.deliver"][0] == sum(r.ev in ("beacon_tx", "ack_tx") for r in trace)
    calls, total, self_time = layers["run"]
    children = sum(total for name, (_c, total, _s) in layers.items()
                   if name in ("sim.deliver", "codec.encode", "codec.decode", "metrics.replay",
                               "protocol.beacon_rx", "protocol.ack_rx", "protocol.timer"))
    assert calls == 1 and self_time < total and self_time <= total - children + 1e-3


def test_self_time_arithmetic():
    recorder = tracing.Recorder()
    recorder.spans[:] = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1),
                         ("b", 5.0, 6.0, 0)]
    assert recorder.layers() == {"a": (1, 10.0, 6.0), "b": (2, 4.0, 3.0), "c": (1, 1.0, 1.0)}
