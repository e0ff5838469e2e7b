import pytest

from beaconkx.config import parse_config_text
from beaconkx.metrics import compute_metrics
from beaconkx.protocol import DhMode
from beaconkx.sim import Mobility, SimConfig, run
from beaconkx.trace import (
    EV_ACK_RX,
    EV_ACK_TX,
    EV_BEACON_RX,
    EV_BEACON_TX,
    EV_KEY_ESTABLISHED,
    EV_NEIGHBOR_EXPIRED,
    Trace,
    TraceRecord,
)


def rec(t, ev, node, peer=None, pos=(0.0, 0.0), **extra):
    return TraceRecord(t=t, ev=ev, node=node, peer=peer, pos=pos, extra=extra)


def handshake_trace():
    """Two nodes 100 m apart completing one exchange at t ~ 0.5."""
    return Trace([
        rec(0.5, EV_BEACON_TX, 1, pos=(0.0, 0.0), len=19, timer_at=0.5, version=1),
        rec(0.6, EV_BEACON_RX, 2, peer=1, pos=(100.0, 0.0), len=19),
        rec(0.6, EV_KEY_ESTABLISHED, 2, peer=1, pos=(100.0, 0.0), key="ab"),
        rec(0.6, EV_ACK_TX, 2, peer=1, pos=(100.0, 0.0), len=19),
        rec(0.7, EV_ACK_RX, 1, peer=2, pos=(0.0, 0.0), len=19),
        rec(0.7, EV_KEY_ESTABLISHED, 1, peer=2, pos=(0.0, 0.0), key="ab"),
    ])


class TestCounters:
    def test_counts_and_bytes(self):
        metrics = compute_metrics(handshake_trace(), radio_range=250.0,
                                  duration=2.0)
        assert metrics.beacons_sent == 1
        assert metrics.acks_sent == 1
        assert metrics.handshakes_completed == 2
        assert metrics.expiries == 0
        assert metrics.bytes_on_air == 38

    def test_expiry_counted_and_table_updated(self):
        trace = Trace(list(handshake_trace())
                      + [rec(1.5, EV_NEIGHBOR_EXPIRED, 2, peer=1,
                             pos=(100.0, 0.0))])
        metrics = compute_metrics(trace, radio_range=250.0, duration=2.0)
        assert metrics.expiries == 1
        # sample at t=2: node 2 dropped node 1 while they are in range
        assert metrics.table_samples[-1].recall == 0.5


class TestLatency:
    def test_pair_latency_spans_first_beacon_to_both_keys(self):
        metrics = compute_metrics(handshake_trace(), radio_range=250.0,
                                  duration=2.0)
        assert metrics.handshake_latency_mean == pytest.approx(0.2)
        assert metrics.handshake_latency_p95 == pytest.approx(0.2)

    def test_incomplete_pair_excluded(self):
        trace = Trace(list(handshake_trace())[:3])  # only one direction keyed
        metrics = compute_metrics(trace, radio_range=250.0, duration=2.0)
        assert metrics.handshakes_completed == 1
        assert metrics.handshake_latency_mean is None
        assert metrics.handshake_latency_p95 is None


class TestSamples:
    def test_sample_grid_covers_duration(self):
        metrics = compute_metrics(handshake_trace(), radio_range=250.0,
                                  duration=3.0)
        assert [s.t for s in metrics.table_samples] == [1.0, 2.0, 3.0]

    def test_precision_recall_perfect_tables(self):
        metrics = compute_metrics(handshake_trace(), radio_range=250.0,
                                  duration=1.0)
        (sample,) = metrics.table_samples
        assert sample.precision == 1.0
        assert sample.recall == 1.0

    def test_vacuous_sample_before_any_event(self):
        trace = Trace([rec(1.5, EV_BEACON_TX, 1, len=19, timer_at=1.5, version=1)])
        metrics = compute_metrics(trace, radio_range=250.0, duration=2.0)
        assert metrics.table_samples[0] == metrics.table_samples[0].__class__(
            t=1.0, precision=1.0, recall=1.0)

    def test_stale_entry_lowers_precision(self):
        # Node 1 heard node 2, but node 2 has reported a position out of range.
        trace = Trace([
            rec(0.2, EV_BEACON_TX, 2, pos=(0.0, 0.0), len=19, timer_at=0.2, version=1),
            rec(0.3, EV_BEACON_RX, 1, peer=2, pos=(100.0, 0.0), len=19),
            rec(0.8, EV_BEACON_TX, 2, pos=(900.0, 0.0), len=19, timer_at=0.8, version=1),
        ])
        metrics = compute_metrics(trace, radio_range=250.0, duration=1.0)
        (sample,) = metrics.table_samples
        assert sample.precision == 0.0
        assert sample.recall == 1.0  # no true adjacency remains

    # 1.0000004 is written as 1.000000, so a replay of the file counts it
    # in the sample at 1, and so must the run.
    @pytest.mark.parametrize("t", [1.0, 1.0000004])
    def test_records_at_sample_instant_are_included(self, t):
        trace = Trace([
            rec(0.5, EV_BEACON_TX, 1, pos=(0.0, 0.0), len=19, timer_at=0.5, version=1),
            rec(0.5, EV_BEACON_TX, 2, pos=(100.0, 0.0), len=19, timer_at=0.5, version=1),
            rec(t, EV_BEACON_RX, 1, peer=2, pos=(0.0, 0.0), len=19),
            rec(t, EV_BEACON_RX, 2, peer=1, pos=(100.0, 0.0), len=19),
        ])
        metrics = compute_metrics(trace, radio_range=250.0, duration=1.0)
        (sample,) = metrics.table_samples
        assert sample.recall == 1.0

    def test_range_is_judged_at_written_positions(self):
        # 250.0000004 m apart is written as 250.000000: in range.
        trace = Trace([
            rec(0.5, EV_BEACON_RX, 1, peer=2, pos=(0.0, 0.0), len=19),
            rec(0.5, EV_BEACON_RX, 2, peer=1, pos=(250.0000004, 0.0), len=19),
        ])
        metrics = compute_metrics(trace, radio_range=250.0, duration=1.0)
        (sample,) = metrics.table_samples
        assert (sample.precision, sample.recall) == (1.0, 1.0)


class TestSerialization:
    def test_json_is_stable_and_complete(self):
        metrics = compute_metrics(handshake_trace(), radio_range=250.0,
                                  duration=2.0)
        text = metrics.to_json()
        assert text == metrics.to_json()
        for field in ("beacons_sent", "acks_sent", "handshakes_completed",
                      "handshake_latency_mean", "handshake_latency_p95",
                      "expiries", "bytes_on_air", "table_samples"):
            assert f'"{field}"' in text

    @pytest.mark.parametrize("cfg", [
        pytest.param(SimConfig(
            n_vehicles=10, area=(150.0, 150.0), speed_range=(5.0, 15.0),
            mobility=Mobility.RANDOM_WAYPOINT, loss_rate=0.2, duration=6.0,
            dh_bits=64, dh_mode=DhMode.PER_NODE_PARAMS, seed=seed), id=str(seed))
        for seed in (1, 10)
    ] + [
        # The engine's positions are 250.0000004 m apart, out of range; the
        # file's are 250.000000 apart, in range.
        pytest.param(parse_config_text(
            "sim.n_vehicles = 2\n"
            "sim.placements = 100,100; 350.0000004,100\n"
            "sim.radio_range = 250\n"
            "sim.area_width = 1000\n"
            "sim.area_height = 1000\n"
            "sim.duration = 3\n"
            "sim.dh_bits = 32\n"), id="range_boundary"),
        # Node 1's first beacon is heard at t = 1.0000004, written 1.000000.
        pytest.param(parse_config_text(
            "sim.n_vehicles = 2\n"
            "sim.placements = 100,100; 200,100\n"
            "sim.radio_range = 250\n"
            "sim.duration = 2\n"
            "sim.dh_bits = 32\n"
            "sim.prop_delay = 0\n"
            "sim.seed = 1\n"
            "sim.crypto_costs = on\n"
            "sim.cost_param_gen = 0.668327583548755\n"), id="sample_boundary"),
    ])
    def test_replay_from_file_equals_run(self, cfg):
        # The file keeps six decimals of every time and position; no
        # metric may depend on the digits it drops.
        trace, metrics = run(cfg)
        replayed = compute_metrics(Trace.from_jsonl(trace.to_jsonl()),
                                   radio_range=cfg.radio_range,
                                   duration=cfg.duration)
        assert replayed.to_json() == metrics.to_json()
