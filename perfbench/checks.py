"""Output checks made apart from the program.

Every check takes plain data - trace records, the nodes' key material,
metric dicts - and returns a list of problems; an empty list is a pass.
Expected values are recomputed here with builtin ``pow``, ``math.hypot``
and ``sympy.isprime``, never by calling back into ``beaconkx``, so a
fault in the program cannot hide itself.
"""

from __future__ import annotations

import json
import math
from collections import Counter, defaultdict
from dataclasses import dataclass

HEADER_LEN = 18      # fixed packet header, in octets
KEY_MASK = (1 << 128) - 1
MAX_PROBLEMS = 5     # keep reports short; one problem already fails a check
EPS = 1e-9
TRACE_RESOLUTION = 1e-6  # the trace file writes every float with six decimals
LATENCY_KEYS = ("handshake_latency_mean", "handshake_latency_p95")


@dataclass(frozen=True)
class Group:
    p: int
    w: int


@dataclass(frozen=True)
class KeyPair:
    group: Group
    private: int
    public: int


@dataclass(frozen=True)
class NodeKeys:
    """One node's own key pair plus the pairs it answers peers' groups in."""

    own: KeyPair
    responder: dict[int, KeyPair]


def _problems(found: list[str]) -> list[str]:
    if len(found) > MAX_PROBLEMS:
        return found[:MAX_PROBLEMS] + [f"... {len(found) - MAX_PROBLEMS} more"]
    return found


def _octets(value: int) -> int:
    """Length of the canonical big-endian magnitude of ``value``."""
    return max(1, (value.bit_length() + 7) // 8)


def _pow(pow_cache: dict, base: int, exponent: int, modulus: int) -> int:
    """Builtin ``pow``, remembered: repeated rounds check the same numbers."""
    args = (base, exponent, modulus)
    if args not in pow_cache:
        pow_cache[args] = pow(base, exponent, modulus)
    return pow_cache[args]


def _key(pow_cache: dict, peer_public: int, own_private: int, p: int) -> str:
    """The 16 least-significant octets of the shared secret, as hex."""
    secret = _pow(pow_cache, peer_public, own_private, p)
    return (secret & KEY_MASK).to_bytes(16, "big").hex()


def key_agreement(records, keys: dict[int, NodeKeys], pow_cache: dict) -> list[str]:
    """Each key pair is consistent, and each ``key_established`` key is a
    Diffie-Hellman key of the two nodes: in the node's own group (it
    initiated, the peer answered in its group) or in the peer's group
    (it answered the peer's beacon)."""
    found = []
    for node, nk in keys.items():
        for label, pair in [("own", nk.own)] + [
                (f"responder for {peer}", pair) for peer, pair in nk.responder.items()]:
            g = pair.group
            if _pow(pow_cache, g.w, pair.private, g.p) != pair.public:
                found.append(f"node {node}: {label} public value is not w^x mod p")
    for rec in records:
        if rec.ev != "key_established":
            continue
        a, b = keys[rec.node], keys[rec.peer]
        expected = set()
        peer_answer = b.responder.get(rec.node, b.own if b.own.group == a.own.group else None)
        if peer_answer is not None:   # b answered a's beacon inside a's group
            expected.add(_key(pow_cache, peer_answer.public, a.own.private, a.own.group.p))
        own_answer = a.responder.get(rec.peer, a.own if a.own.group == b.own.group else None)
        if own_answer is not None:    # a answered b's beacon inside b's group
            expected.add(_key(pow_cache, b.own.public, own_answer.private, b.own.group.p))
        if rec.extra["key"] not in expected:
            found.append(f"t={rec.t}: key of {rec.node}->{rec.peer} matches no exchange")
    return _problems(found)


def primality(groups: list[Group], bits: int, isprime) -> list[str]:
    """Every group modulus is a prime of exactly ``bits`` bits."""
    found = []
    for g in groups:
        if g.p.bit_length() != bits:
            found.append(f"p has {g.p.bit_length()} bits, expected {bits}")
        elif not isprime(g.p):
            found.append(f"p = {g.p} is composite")
        if not 2 <= g.w < g.p:
            found.append(f"base {g.w} outside [2, p)")
    return _problems(found)


def packet_lengths(records, keys: dict[int, NodeKeys], per_node: bool) -> list[str]:
    """Each transmitted ``len`` is 18 octets of header plus the payload
    the sender must have put on the wire, and each reception reports the
    same length as the transmission it came from."""
    found = []
    sent = Counter()
    for rec in records:
        if rec.ev == "beacon_tx":
            own = keys[rec.node].own
            if per_node:
                version = 2
                payload = 6 + _octets(own.group.p) + _octets(own.group.w) + _octets(own.public)
            else:
                version, payload = 1, _octets(own.public)
            if rec.extra.get("version") != version:
                found.append(f"t={rec.t}: beacon of {rec.node} is version "
                             f"{rec.extra.get('version')}, expected {version}")
        elif rec.ev == "ack_tx":
            nk = keys[rec.node]
            answer = nk.responder.get(rec.peer, nk.own) if per_node else nk.own
            payload = _octets(answer.public)
        else:
            continue
        if rec.extra["len"] != HEADER_LEN + payload:
            found.append(f"t={rec.t}: {rec.ev} of {rec.node} has len {rec.extra['len']}, "
                         f"expected {HEADER_LEN + payload}")
        sent[(rec.ev[:-3], rec.node, rec.extra["len"])] += 1
    for rec in records:
        if rec.ev in ("beacon_rx", "ack_rx") and not sent[(rec.ev[:-3], rec.peer, rec.extra["len"])]:
            found.append(f"t={rec.t}: {rec.ev} at {rec.node} has len {rec.extra['len']}, "
                         f"which {rec.peer} never sent")
    return _problems(found)


def counters(records, metrics: dict) -> list[str]:
    """The run's counters, recounted from the trace."""
    recount = {"beacons_sent": 0, "acks_sent": 0, "bytes_on_air": 0}
    keyed = set()
    for rec in records:
        if rec.ev == "beacon_tx":
            recount["beacons_sent"] += 1
            recount["bytes_on_air"] += rec.extra["len"]
        elif rec.ev == "ack_tx":
            recount["acks_sent"] += 1
            recount["bytes_on_air"] += rec.extra["len"]
        elif rec.ev == "key_established":
            keyed.add((rec.node, rec.peer))
    recount["handshakes_completed"] = len(keyed)
    return [f"{name} is {metrics[name]}, the trace gives {value}"
            for name, value in recount.items() if metrics[name] != value]


def _transmissions(records, delay: float) -> dict:
    """(kind, sender, addressee or None, arrival time) -> sender position."""
    tx = {}
    for rec in records:
        if rec.ev == "beacon_tx":
            tx[("beacon", rec.node, None, rec.t + delay)] = rec.pos
        elif rec.ev == "ack_tx":
            tx[("ack", rec.node, rec.peer, rec.t + delay)] = rec.pos
    return tx


def reception_range(records, radio_range: float, delay: float, slack: float) -> list[str]:
    """Every reception comes from a transmission sent ``delay`` earlier,
    from no farther than the radio range plus ``slack``: the distance the
    receiver can move in the one mobility tick that may fall in between."""
    tx = _transmissions(records, delay)
    found = []
    for rec in records:
        if rec.ev == "beacon_rx":
            origin = tx.get(("beacon", rec.peer, None, rec.t))
        elif rec.ev == "ack_rx":
            origin = tx.get(("ack", rec.peer, rec.node, rec.t))
        else:
            continue
        if origin is None:
            found.append(f"t={rec.t}: {rec.ev} at {rec.node} from {rec.peer} was never sent")
            continue
        d = math.hypot(origin[0] - rec.pos[0], origin[1] - rec.pos[1])
        if d > radio_range + slack + EPS:
            found.append(f"t={rec.t}: {rec.ev} at {rec.node} from {rec.peer} "
                         f"across {d:.3f} m")
    return _problems(found)


def dense_receivers(records, radio_range: float, delay: float, duration: float,
                    halts: dict[int, float]) -> list[str]:
    """Static, lossless radio: each beacon reaches exactly the live nodes
    in range (brute force over the trace's positions), each reception
    draws an ACK at once and each ACK reaches its live addressee."""
    found = []
    pos = {}
    for rec in records:
        if pos.setdefault(rec.node, rec.pos) != rec.pos:
            found.append(f"node {rec.node} moved in a static scene")
    alive = lambda node, t: t < halts.get(node, math.inf)
    heard = defaultdict(set)
    acks, ack_rx = set(), set()
    for rec in records:
        if rec.ev == "beacon_rx":
            heard[(rec.peer, rec.t)].add(rec.node)
        elif rec.ev == "ack_tx":
            acks.add((rec.node, rec.peer, rec.t))
        elif rec.ev == "ack_rx":
            ack_rx.add((rec.peer, rec.node, rec.t))
    for rec in records:
        if rec.ev == "beacon_tx":
            arrive = rec.t + delay
            if arrive > duration:
                continue
            sender = pos[rec.node]
            expected = {
                node for node, p in pos.items()
                if node != rec.node and alive(node, arrive)
                and math.hypot(p[0] - sender[0], p[1] - sender[1]) <= radio_range
            }
            got = heard.get((rec.node, arrive), set())
            if got != expected:
                found.append(f"t={rec.t}: beacon of {rec.node} reached {len(got)} nodes, "
                             f"{len(expected)} live nodes are in range "
                             f"(missing {sorted(expected - got)}, extra {sorted(got - expected)})")
        elif rec.ev == "beacon_rx":
            if (rec.node, rec.peer, rec.t) not in acks:
                found.append(f"t={rec.t}: beacon_rx at {rec.node} drew no ACK")
            arrive = rec.t + delay
            if (arrive <= duration and alive(rec.peer, arrive)
                    and (rec.node, rec.peer, arrive) not in ack_rx):
                found.append(f"t={rec.t}: ACK from {rec.node} never reached {rec.peer}")
    return _problems(found)


def tables_exact(samples: list[dict], start: float, end: float) -> list[str]:
    """Precision and recall are 1.0 at every sample inside [start, end]."""
    found = [f"t={s['t']}: precision {s['precision']}, recall {s['recall']}"
             for s in samples
             if start <= s["t"] <= end and (s["precision"], s["recall"]) != (1.0, 1.0)]
    if not any(start <= s["t"] <= end for s in samples):
        found.append(f"no table sample inside [{start}, {end}]")
    return _problems(found)


def recall_after_expiry(samples: list[dict], deadline: float) -> list[str]:
    """Once every live node has expired the halted node, recall is 1.0."""
    after = [s for s in samples if s["t"] > deadline]
    found = [f"t={s['t']}: recall {s['recall']} after the expiry deadline {deadline}"
             for s in after if s["recall"] != 1.0]
    if not after:
        found.append(f"no table sample after {deadline}")
    return _problems(found)


def final_keys_agree(records) -> list[str]:
    """Both ends of every keyed pair end the run holding the same key."""
    final = {}
    for rec in records:
        if rec.ev == "key_established":
            final[(rec.node, rec.peer)] = rec.extra["key"]
        elif rec.ev == "neighbor_expired":
            final.pop((rec.node, rec.peer), None)
    found = [f"{a}<->{b}: {key} against {final[(b, a)]}"
             for (a, b), key in sorted(final.items())
             if a < b and (b, a) in final and final[(b, a)] != key]
    return _problems(found)


def same_metrics(memory_json: str, file_json: str) -> list[str]:
    """Metrics replayed from the trace file equal those of the run.

    Every field must be equal, except the two handshake latencies: they
    are differences of times that the file rounds to six decimals, so
    after their own rounding they may differ by two units of the sixth.
    """
    a, b = json.loads(memory_json), json.loads(file_json)
    found = []
    for key in sorted(set(a) | set(b)):
        x, y = a.get(key), b.get(key)
        if key in LATENCY_KEYS and x is not None and y is not None:
            if abs(x - y) > 2 * TRACE_RESOLUTION + EPS:
                found.append(f"{key}: {x} in memory, {y} from the file")
        elif x != y:
            found.append(f"{key}: {str(x)[:80]} in memory, {str(y)[:80]} from the file")
    return _problems(found)


def same_text(name: str, expected: str, got: str) -> list[str]:
    """Byte-for-byte equality of two serialisations."""
    return [] if expected == got else [f"{name} differs"]
