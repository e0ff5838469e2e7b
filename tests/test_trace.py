"""The one-pass trace writer against the per-record reference writer, and
the reader's round trip on the benchmark's scenes."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beaconkx.config import parse_config_text
from beaconkx.sim import run
from beaconkx.trace import Trace, TraceRecord, _fmt_value

SCENES_PY = Path(__file__).parent.parent / "perfbench" / "scenes.py"


def reference_line(record: TraceRecord) -> str:
    """One record, written field by field as the trace format defines it."""
    peer = "null" if record.peer is None else str(record.peer)
    extra = ", ".join(
        f"{json.dumps(k)}: {_fmt_value(v)}" for k, v in sorted(record.extra.items()))
    return (
        f'{{"t": {record.t:.6f}, "ev": {json.dumps(record.ev)}, '
        f'"node": {record.node}, "peer": {peer}, '
        f'"pos": [{record.pos[0]:.6f}, {record.pos[1]:.6f}], '
        f'"extra": {{{extra}}}}}'
    )


def reference_jsonl(records) -> str:
    return "".join(reference_line(r) + "\n" for r in records)


# Names that need escaping in JSON, next to the ones the engine writes.
NAMES = st.one_of(
    st.sampled_from(["len", "timer_at", "version", "key", "probe", 'q"uote',
                     "back\\slash", "new\nline", "tab\t", "café", "☃", ""]),
    st.text(max_size=8),
)
VALUES = st.one_of(st.integers(), st.floats(), st.booleans(), st.text(max_size=8))
# Keys inserted in descending order, so a writer that skips the sort fails.
EXTRAS = st.one_of(
    st.dictionaries(NAMES, VALUES, max_size=4),
    st.lists(st.tuples(NAMES, VALUES), min_size=2, max_size=4).map(
        lambda items: dict(sorted(items, key=lambda kv: kv[0], reverse=True))),
)
RECORDS = st.builds(
    TraceRecord,
    t=st.floats(),
    ev=NAMES,
    node=st.integers(),
    peer=st.none() | st.integers(),
    pos=st.tuples(st.floats(), st.floats()),
    extra=EXTRAS,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(RECORDS, max_size=6))
def test_writer_equals_reference(records):
    assert Trace(records).to_jsonl() == reference_jsonl(records)


@pytest.mark.parametrize("value", [None, [1], 1j])
def test_unsupported_extra_value_is_a_type_error(value):
    record = TraceRecord(0.0, "beacon_tx", 1, None, (0.0, 0.0), {"a": 1, "b": value})
    with pytest.raises(TypeError):
        reference_line(record)
    with pytest.raises(TypeError):
        Trace([record]).to_jsonl()


def test_integers_stand_for_floats_in_the_reader():
    line = '{"t": 2, "ev": "beacon_rx", "node": 1, "peer": 2, "pos": [3, -4], "extra": {}}\n'
    [record] = Trace.from_jsonl(line).records
    assert (record.t, record.pos) == (2.0, (3.0, -4.0))
    assert all(type(v) is float for v in (record.t, *record.pos))


def _scenes():
    name = "perfbench_scenes"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, SCENES_PY)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name].SCENES


@pytest.mark.parametrize("workload", ["dense", "fleet", "pernode"])
def test_round_trip_on_benchmark_scenes(workload):
    trace, _ = run(parse_config_text(_scenes()[workload](1).text))
    text = trace.to_jsonl()
    assert text == reference_jsonl(trace.records)
    assert Trace.from_jsonl(text).to_jsonl() == text
