"""Fixed-input microbenchmarks of the ``dh`` and ``codec`` layers.

Inputs come from a fixed stream, never from ``--seed``, so every run
times the same work. Each figure is the median over a few batches.
"""

from __future__ import annotations

import random
import statistics
import time

BATCHES = 5


def _per_call(fn, calls: int) -> float:
    """Median over BATCHES of the seconds one call takes."""
    times = []
    for _ in range(BATCHES):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - start) / calls)
    return statistics.median(times)


def _mod_exp_us(dh, bits: int, calls: int, rng: random.Random) -> float:
    modulus = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
    base, exponent = rng.getrandbits(bits) % modulus, rng.getrandbits(bits)
    return _per_call(lambda: dh.mod_exp(base, exponent, modulus), calls) * 1e6


def _param_gen_ms(dh, bits: int, searches: int) -> float:
    times = []
    for index in range(searches):
        rng = random.Random(f"perfbench/micro/params/{index}")
        start = time.perf_counter()
        dh.generate_dh_params(bits, rng)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def _codec_us(codec, version: int, calls: int, rng: random.Random) -> tuple[float, float]:
    public = rng.getrandbits(512) | (1 << 511)
    if version == codec.VERSION_PARAM_TRIPLE:
        p, w = rng.getrandbits(512) | (1 << 511), rng.getrandbits(511) | (1 << 510)
        payload = codec.encode_param_triple(p, w, public)
    else:
        payload = codec.int_to_magnitude(public)
    packet = codec.BeaconPacket(identifiant=7, version=version, ptype=codec.PacketType.BEACON,
                                src_pos=codec.Position(123.5, 456.25), public_value=payload)
    raw = codec.encode_packet(packet)
    if codec.decode_packet(raw) != packet:
        raise RuntimeError("codec microbenchmark packet does not round-trip")
    encode = _per_call(lambda: codec.encode_packet(packet), calls) * 1e6
    decode = _per_call(lambda: codec.decode_packet(raw), calls) * 1e6
    return encode, decode


def run(prog) -> dict[str, tuple[float, str]]:
    codec, dh = prog.codec, prog.dh
    rng = random.Random("perfbench/micro")
    encode_v1, decode_v1 = _codec_us(codec, codec.VERSION_SINGLE, 2000, rng)
    encode_v2, decode_v2 = _codec_us(codec, codec.VERSION_PARAM_TRIPLE, 2000, rng)
    return {
        "dh.mod_exp_512_us": (_mod_exp_us(dh, 512, 40, rng), "us"),
        "dh.mod_exp_1024_us": (_mod_exp_us(dh, 1024, 10, rng), "us"),
        "dh.param_gen_512_ms": (_param_gen_ms(dh, 512, 9), "ms"),
        "codec.encode_v1_us": (encode_v1, "us"),
        "codec.decode_v1_us": (decode_v1, "us"),
        "codec.encode_v2_us": (encode_v2, "us"),
        "codec.decode_v2_us": (decode_v2, "us"),
    }
