"""Command-line harness: run simulations, replay metrics from a saved
trace, benchmark the crypto, manage golden packet vectors.

Exit codes are a stable contract: 0 success, 1 a failure while running
(an output that cannot be written), 2 usage or input error, a missing or
unreadable input file included.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time
from dataclasses import dataclass, replace

from .codec import (
    BeaconPacket,
    CodecError,
    PacketType,
    Position,
    decode_packet,
    encode_packet,
    encode_param_triple,
    int_to_magnitude,
)
from .config import load_config_file
from .dh import (
    MAX_MODULUS_BITS,
    MIN_MODULUS_BITS,
    compute_shared_secret,
    derive_symmetric_key,
    generate_dh_params,
    generate_keypair,
)
from .metrics import compute_metrics
from .sim import ConfigError, CryptoCosts, SimConfig, run
from .trace import Trace, TraceFormatError

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

# Reference medians (nanoseconds) for the default 512-bit size, measured
# on a 2.13 GHz Pentium-class host; printed for scale, never asserted.
# They are the default simulated crypto costs.
_COSTS = CryptoCosts()
REFERENCE_NS = {
    "param_gen": round(_COSTS.param_gen * 1e9),
    "initiator_secret": round(_COSTS.sender_secret * 1e9),
    "responder_secret": round(_COSTS.receiver_secret * 1e9),
}

# Canonical packets for cross-implementation checks: a known-answer set
# covering both payload formats, both types, and negative coordinates.
GOLDEN_PACKETS = (
    BeaconPacket(identifiant=1, version=1, ptype=PacketType.BEACON,
                 src_pos=Position(0.0, 0.0), public_value=b"\x08"),
    BeaconPacket(identifiant=1, version=1, ptype=PacketType.BEACON,
                 src_pos=Position(1.5, -2.0), public_value=b"\x08"),
    BeaconPacket(identifiant=2, version=1, ptype=PacketType.ACK,
                 src_pos=Position(2.5, 3.75), public_value=b"\x13"),
    BeaconPacket(identifiant=7, version=2, ptype=PacketType.BEACON,
                 src_pos=Position(1.5, -2.0),
                 public_value=encode_param_triple(23, 5, 8)),
    BeaconPacket(identifiant=0xDEADBEEF, version=1, ptype=PacketType.ACK,
                 src_pos=Position(-312.5, 4096.0),
                 public_value=int_to_magnitude(0x0102030405)),
)


def golden_vector_lines() -> list[str]:
    return [" ".join(f"{b:02x}" for b in encode_packet(pkt))
            for pkt in GOLDEN_PACKETS]


@dataclass(frozen=True)
class BenchResult:
    bits: int
    trials: int
    param_gen_ns: int
    initiator_secret_ns: int
    responder_secret_ns: int

    @property
    def handshake_total_ns(self) -> int:
        return (self.param_gen_ns + self.initiator_secret_ns
                + self.responder_secret_ns)


def run_bench(bits: int, trials: int, seed: int) -> BenchResult:
    """Time the three key-agreement steps over ``trials`` exchanges.

    Medians are reported: prime search is heavy-tailed and a mean would
    wander with the occasional long hunt.
    """
    gen_times, init_times, resp_times = [], [], []
    rng = random.Random(f"{seed}/bench")
    for _ in range(trials):
        t0 = time.perf_counter_ns()
        params = generate_dh_params(bits, rng)
        initiator = generate_keypair(params, rng)
        t1 = time.perf_counter_ns()
        responder = generate_keypair(params, rng)  # peer-side setup, untimed

        t2 = time.perf_counter_ns()
        secret_i = compute_shared_secret(params, initiator.private_exponent,
                                         responder.public_value)
        key_i = derive_symmetric_key(secret_i)
        t3 = time.perf_counter_ns()
        secret_r = compute_shared_secret(params, responder.private_exponent,
                                         initiator.public_value)
        key_r = derive_symmetric_key(secret_r)
        t4 = time.perf_counter_ns()

        if key_i != key_r:
            raise RuntimeError("key agreement failed during benchmark")
        gen_times.append(t1 - t0)
        init_times.append(t3 - t2)
        resp_times.append(t4 - t3)
    return BenchResult(
        bits=bits,
        trials=trials,
        param_gen_ns=int(statistics.median(gen_times)),
        initiator_secret_ns=int(statistics.median(init_times)),
        responder_secret_ns=int(statistics.median(resp_times)),
    )


def _print_bench(result: BenchResult, out) -> None:
    show_ref = result.bits == 512
    rows = [
        ("parameter + public value generation", result.param_gen_ns,
         REFERENCE_NS["param_gen"]),
        ("initiator shared-secret computation", result.initiator_secret_ns,
         REFERENCE_NS["initiator_secret"]),
        ("responder shared-secret computation", result.responder_secret_ns,
         REFERENCE_NS["responder_secret"]),
    ]
    print(f"key agreement benchmark: {result.bits}-bit modulus, "
          f"{result.trials} trial(s), median wall time", file=out)
    header = f"{'operation':<40} {'median_ns':>14}"
    if show_ref:
        header += f" {'reference_ns':>14}"
    print(header, file=out)
    for label, measured, reference in rows:
        line = f"{label:<40} {measured:>14}"
        if show_ref:
            line += f" {reference:>14}"
        print(line, file=out)
    total_line = f"{'two-party handshake total (a+b+c)':<40} {result.handshake_total_ns:>14}"
    if show_ref:
        total_line += f" {sum(REFERENCE_NS.values()):>14}"
    print(total_line, file=out)
    if show_ref:
        print("reference column: 512-bit medians on a 2.13 GHz Pentium-class "
              "host, for scale only", file=out)


def _load_config(path: str) -> SimConfig | None:
    """The config at ``path``, or None after printing why it is unusable."""
    try:
        return load_config_file(path)
    except OSError as exc:
        print(f"error: cannot read config {path}: {exc}", file=sys.stderr)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
    return None


def _cmd_run(args) -> int:
    config = _load_config(args.config)
    if config is None:
        return EXIT_USAGE
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    trace, metrics = run(config)
    try:
        with open(args.trace, "w", encoding="utf-8") as handle:
            handle.write(trace.to_jsonl())
        with open(args.metrics, "w", encoding="utf-8") as handle:
            handle.write(metrics.to_json())
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"simulated {config.duration:g} s, {len(trace)} trace events, "
          f"{metrics.handshakes_completed} handshakes")
    return EXIT_OK


def _cmd_metrics(args) -> int:
    config = _load_config(args.config)
    if config is None:
        return EXIT_USAGE
    try:
        with open(args.trace, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        print(f"error: cannot read trace {args.trace}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        trace = Trace.from_jsonl(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        print(f"error: {args.trace}: line {lineno}: not UTF-8 text", file=sys.stderr)
        return EXIT_USAGE
    except TraceFormatError as exc:
        print(f"error: {args.trace}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    metrics = compute_metrics(trace, radio_range=config.radio_range,
                              duration=config.duration)
    sys.stdout.write(metrics.to_json())
    return EXIT_OK


def _cmd_bench(args) -> int:
    if not MIN_MODULUS_BITS <= args.bits <= MAX_MODULUS_BITS:
        print(f"error: --bits must be in [{MIN_MODULUS_BITS}, {MAX_MODULUS_BITS}]",
              file=sys.stderr)
        return EXIT_USAGE
    if args.trials < 1:
        print("error: --trials must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    result = run_bench(args.bits, args.trials, args.seed)
    _print_bench(result, sys.stdout)
    return EXIT_OK


def check_vector_lines(lines) -> tuple[int, str] | None:
    """Validate hex-dump lines; returns (lineno, reason) on first failure."""
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        try:
            raw = bytes(int(token, 16) for token in stripped.split())
        except ValueError:
            return lineno, "not a space-separated hex dump"
        try:
            pkt = decode_packet(raw)
        except CodecError as exc:
            return lineno, f"does not decode: {exc}"
        if encode_packet(pkt) != raw:
            return lineno, "re-encoding differs from the original octets"
    return None


def _cmd_vectors(args) -> int:
    if args.emit:
        for line in golden_vector_lines():
            print(line)
        return EXIT_OK
    try:
        with open(args.check, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        print(f"error: cannot read vector file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    failure = check_vector_lines(lines)
    if failure is not None:
        lineno, reason = failure
        print(f"error: line {lineno}: {reason}", file=sys.stderr)
        return EXIT_USAGE
    print(f"{args.check}: all vectors decode and re-encode cleanly")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beaconkx",
        description="Beaconing with key exchange: simulator and tooling")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a simulation from a config file")
    p_run.add_argument("--config", required=True, help="key = value config file")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    p_run.add_argument("--trace", default="trace.jsonl",
                       help="output trace path (JSON lines)")
    p_run.add_argument("--metrics", default="metrics.json",
                       help="output metrics path (JSON)")
    p_run.set_defaults(func=_cmd_run)

    p_met = sub.add_parser(
        "metrics", help="recompute the metrics of a saved trace file")
    p_met.add_argument("--config", required=True,
                       help="config of the run (gives radio range and duration)")
    p_met.add_argument("--trace", required=True, help="trace file (JSON lines)")
    p_met.set_defaults(func=_cmd_metrics)

    p_bench = sub.add_parser("bench", help="time the key-agreement steps")
    p_bench.add_argument("--bits", type=int, default=512)
    p_bench.add_argument("--trials", type=int, default=10)
    p_bench.add_argument("--seed", type=int, default=1)
    p_bench.set_defaults(func=_cmd_bench)

    p_vec = sub.add_parser("vectors", help="emit or check golden packet vectors")
    group = p_vec.add_mutually_exclusive_group(required=True)
    group.add_argument("--emit", action="store_true",
                       help="print the golden vectors as hex lines")
    group.add_argument("--check", metavar="FILE",
                       help="validate a hex-dump vector file")
    p_vec.set_defaults(func=_cmd_vectors)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entrypoint() -> None:
    sys.exit(main())
