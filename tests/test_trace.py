"""The one-pass trace writer against the per-record reference writer, the
reader against the per-line JSON reference reader, and the reader's round
trip on the benchmark's scenes."""

import functools
import gc
import importlib.util
import json
import math
import re
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beaconkx.config import parse_config_text
from beaconkx.sim import run
from beaconkx.trace import (
    _CANONICAL_LINE,
    _PEERED,
    _TRANSMISSIONS,
    Trace,
    TraceFormatError,
    TraceRecord,
    _fmt_value,
    _number,
    _reason,
)

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


# Few values, so records repeat the writer's last time, a node's last
# position and an ``extra`` item on purpose: ``-0.0`` equals ``0.0`` and
# ``True`` and ``1.0`` equal ``1``, each hashing alike, yet each prints
# differently. Positions are fresh tuples or shared objects, as a run's
# and a read file's records share them, so the writer's per-node cache
# sees the same object again as well as an equal one.
REPEATED = st.sampled_from([0.0, -0.0, 1.5, math.nan, math.inf, 2.0**60])
SHARED_POSITIONS = [(0.0, 5.0), (-0.0, 5.0), (1.5, -0.0)]
REPEATING_RECORDS = st.builds(
    TraceRecord,
    t=REPEATED,
    ev=st.just("beacon_rx"),
    node=st.sampled_from([1, 2]),
    peer=st.just(2),
    pos=st.tuples(REPEATED, REPEATED) | st.sampled_from(SHARED_POSITIONS),
    extra=st.sampled_from([1, True, 1.0]).map(lambda v: {"len": v}),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(REPEATING_RECORDS, max_size=12))
def test_writer_equals_reference_on_repeated_values(records):
    assert Trace(records).to_jsonl() == reference_jsonl(records)


def _at(t, pos):
    return TraceRecord(t, "beacon_rx", 1, 2, pos, {"len": 1})


@pytest.mark.parametrize("records", [
    [_at(1.0, (0.0, 5.0)), _at(2.0, (-0.0, 5.0)), _at(3.0, (0.0, 5.0))],
    [_at(0.0, (1.0, 2.0)), _at(-0.0, (1.0, 2.0))],
], ids=["position", "time"])
def test_writer_keeps_the_sign_of_a_repeated_zero(records):
    text = Trace(records).to_jsonl()
    assert text == reference_jsonl(records)
    assert "-0.000000" in text


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
    # Every line the engine writes is read without the JSON decoder.
    assert all(_CANONICAL_LINE.fullmatch(line) for line in text.splitlines())


def test_replayed_records_share_their_immutable_values():
    """Records at one instant share one time, a node's records between moves
    one ``pos`` tuple, and records of one kind one event name: on average a
    record keeps no more than its slots, its own ``extra`` dict, its list
    slot and one float of its own."""
    text = run(parse_config_text(_scenes()["dense"](1).text))[0].to_jsonl()
    gc.collect()
    tracemalloc.start()
    try:
        records = Trace.from_jsonl(text).records
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    bound = sys.getsizeof(records[0]) + sys.getsizeof({"len": 0}) + 8 + 24
    assert retained / len(records) <= bound


def reference_from_jsonl(text: str) -> list[TraceRecord]:
    """Every line through ``json.loads``: the reader before its fast path."""
    records: list[TraceRecord] = []
    last_t = -math.inf
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
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
            if ev in _TRANSMISSIONS and not (type(extra["len"]) is int
                                             and extra["len"] >= 0):
                raise ValueError(f"len {extra['len']!r} is not a non-negative integer")
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise TraceFormatError(f"line {lineno}: {_reason(exc)}") from exc
        if not t >= last_t:
            raise TraceFormatError(f"line {lineno}: time {t} out of order after {last_t}")
        last_t = t
        records.append(TraceRecord(t, ev, node, peer, (x, y), extra))
    return records


SMALL_RUN = """
sim.n_vehicles = 6
sim.area_width = 300
sim.area_height = 300
sim.loss_rate = 0.2
sim.duration = 6
sim.seed = 3
sim.dh_bits = 64
sim.probes = 3.0:1:250:250; 3.0:2:0:0
sim.halts = 2:0.5
"""


@functools.cache
def saved_lines() -> tuple[str, ...]:
    """The first lines of a small run's trace file, and the first of every
    other kind of event in it, in file order."""
    lines = run(parse_config_text(SMALL_RUN))[0].to_jsonl().splitlines()
    firsts = {json.loads(line)["ev"]: i for i, line in reversed(list(enumerate(lines)))}
    return tuple(lines[i] for i in sorted({*range(20), *firsts.values()}))


def assert_readers_agree(lines) -> None:
    """Equal records by ``repr`` (so ``1`` is not ``1.0``, nor ``-0.0``
    ``0.0``), or the same error; and no dict or list in an ``extra`` shared
    between records."""
    text = "\n".join(lines) + "\n"
    try:
        expected = repr(reference_from_jsonl(text))
    except TraceFormatError as exc:
        with pytest.raises(TraceFormatError) as raised:
            Trace.from_jsonl(text)
        assert str(raised.value) == str(exc)
        return
    records = Trace.from_jsonl(text).records
    assert repr(records) == expected
    containers = [id(c) for record in records for c in _containers(record.extra)]
    assert len(set(containers)) == len(containers)


def _containers(value):
    if isinstance(value, (dict, list)):
        yield value
        for item in value.values() if isinstance(value, dict) else value:
            yield from _containers(item)


def test_every_saved_event_kind_is_in_the_sample():
    kinds = {json.loads(line)["ev"] for line in saved_lines()}
    assert kinds == {"beacon_tx", "beacon_rx", "ack_tx", "ack_rx", "key_established",
                     "neighbor_expired", "route_hop", "route_local_max"}


EDITS = st.one_of(
    st.sampled_from(list('0123456789-+.eE"{}[],: _nul\\') + ["\u0663", "\x85", "\t"]),
    st.characters(),
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_reader_agrees_with_reference_on_edited_lines(data):
    """One character inserted, deleted or replaced in one saved line."""
    lines = list(saved_lines())
    index = data.draw(st.integers(0, len(lines) - 1))
    line = lines[index]
    at = data.draw(st.integers(0, len(line) - 1))
    op = data.draw(st.sampled_from(["insert", "delete", "replace"]))
    char = "" if op == "delete" else data.draw(EDITS)
    lines[index] = line[:at] + char + line[at + (op != "insert"):]
    assert_readers_agree(lines)


def _sub(pattern: str, replacement):
    return lambda line: re.sub(pattern, replacement, line, count=1)


def _first_in_extra(member: str):
    return _sub(r'"extra": \{(\}?)',
                lambda m: '"extra": {' + member + ("}" if m[1] else ", "))


def _last_in_extra(member: str):
    return _sub(r'(\{?)\}\}$', lambda m: (m[1] or ", ") + member + "}}")


# Each rewrites one field of a line the way a hand-written file might.
REWRITES = {
    "node leading zero": _sub(r'"node": (\d)', r'"node": 0\1'),
    "peer leading zero": _sub(r'"peer": (\d)', r'"peer": 0\1'),
    "t leading zero": _sub(r'"t": (\d)', r'"t": 0\1'),
    "pos leading zero": _sub(r'"pos": \[(\d)', r'"pos": [0\1'),
    "integer t": _sub(r'"t": (\d+)\.\d+', r'"t": \1'),
    "integer pos": _sub(r'"pos": \[(-?\d+)\.\d+, (-?\d+)\.\d+\]', r'"pos": [\1, \2]'),
    "t exponent": _sub(r'"t": ([\d.]+)', r'"t": \1e0'),
    "negative zero t": _sub(r'"t": [\d.]+', '"t": -0.000000'),
    "negative zero pos": _sub(r'"pos": \[[-\d.]+', '"pos": [-0.000000'),
    "negative zero node": _sub(r'"node": \d+', '"node": -0'),
    "negative zero peer": _sub(r'"peer": \d+', '"peer": -0'),
    "null peer": _sub(r'"peer": \d+', '"peer": null'),
    "no spaces": lambda line: line.replace(": ", ":").replace(", ", ","),
    "double space": _sub(r'"ev": ', '"ev":  '),
    "leading space": lambda line: " " + line,
    "trailing space": lambda line: line + " ",
    "carriage return": lambda line: line + "\r",
    "extra top-level key": lambda line: line[:-1] + ', "x": 1}',
    "second extra": lambda line: line[:-1] + ', "extra": {"len": 7}}',
    "duplicate extra key": _first_in_extra('"len": 1.5'),
    "duplicate len after": _last_in_extra('"len": 3'),
    "nested extra": _first_in_extra('"a": [1, {"b": 2}]'),
    "brace in extra string": _first_in_extra('"a": "}"'),
    "line feed in extra": _first_in_extra('"a":\n1'),
    "upper-case ev": _sub(r'"ev": "(\w)', lambda m: f'"ev": "{m[1].upper()}'),
    "escaped ev": _sub(r'"ev": "(\w+)_', r'"ev": "\1\\u005f'),
    "5000-digit node": _sub(r'"node": \d+', '"node": 1' + "0" * 4999),
    "5000-digit t": _sub(r'"t": [\d.]+', '"t": 1' + "0" * 4999 + ".000000"),
    "400-digit pos": _sub(r'"pos": \[[-\d.]+', '"pos": [1' + "0" * 400 + ".000000"),
    "1e999 t": _sub(r'"t": [\d.]+', '"t": 1e999'),
    "1e999 pos": _sub(r'"pos": \[[-\d.]+', '"pos": [1e999'),
    "17-digit node": _sub(r'"node": \d+', '"node": 9007199254740993'),
    "unicode digit node": _sub(r'"node": \d+', '"node": \u0663'),
    "unicode digit in peer": _sub(r'"peer": \d+', '"peer": 1\u0663'),
    "underscore in node": _sub(r'"node": (\d)', r'"node": 1_\1'),
    "plus sign t": _sub(r'"t": ', '"t": +'),
    "bare t fraction": _sub(r'"t": \d+', '"t": '),
    "float len": _sub(r'"len": (\d+)', r'"len": \1.0'),
    "negative len": _sub(r'"len": (\d+)', r'"len": -\1'),
    "negative len, no spaces": lambda line: _sub(r'"len":(\d+)', r'"len":-\1')(
        line.replace(": ", ":").replace(", ", ",")),
    "blank": lambda line: "   ",
}


@pytest.mark.parametrize("rewrite", REWRITES.values(), ids=REWRITES.keys())
def test_reader_agrees_with_reference_on_rewritten_lines(rewrite):
    lines = saved_lines()
    changed = [rewrite(line) for line in lines]
    assert changed != list(lines)
    for index, line in enumerate(changed):
        assert_readers_agree(lines[:index] + (line,) + lines[index + 1:])
    assert_readers_agree(changed)


LINE = ('{"t": 1.000000, "ev": "key_established", "node": 1, "peer": 2, '
        '"pos": [3.000000, 4.000000], "extra": {"key": "a%sb"}}')


@pytest.mark.parametrize("char", ["\x85", "\u2028", "\u2029"],
                         ids=["U+0085", "U+2028", "U+2029"])
def test_a_line_ends_at_newline_only(char):
    """A line break other than a line feed inside an ``extra`` string is
    part of the line, so a later line's error names the line that line
    feeds count to."""
    line = LINE % char
    [record] = Trace.from_jsonl(line + "\n").records
    assert record.extra == {"key": f"a{char}b"}
    with pytest.raises(TraceFormatError, match="^line 2: missing field 't'$"):
        Trace.from_jsonl(line + "\n{}\n")


def test_a_lone_carriage_return_is_whitespace_inside_a_line():
    line = (LINE % "").replace('"peer": 2, ', '"peer": 2,\r')
    [record] = Trace.from_jsonl(line + "\n").records
    assert (record.node, record.peer, record.pos) == (1, 2, (3.0, 4.0))


def test_a_last_line_without_a_line_feed_reads_the_same():
    text = "\n".join(saved_lines())
    assert repr(Trace.from_jsonl(text).records) == repr(Trace.from_jsonl(text + "\n").records)


def test_a_crlf_file_reads_like_its_lf_text():
    text = "\n".join(saved_lines()) + "\n"
    crlf = text.replace("\n", "\r\n")
    assert Trace.from_jsonl(crlf).records == Trace.from_jsonl(text).records
    assert all(_CANONICAL_LINE.fullmatch(line) for line in crlf.split("\n")[:-1])
