"""Diffie-Hellman key agreement over multi-precision integers.

Implements the two-party exchange used by the beaconing protocol: both
sides agree on a prime modulus ``p`` and a base ``w < p``, each picks a
secret exponent, publishes ``w^secret mod p``, and derives the shared
value ``S = w^(a*b) mod p`` from the peer's public number. The shared
value is then flattened into a fixed 16-octet symmetric key.

All randomness flows through a caller-supplied ``random.Random`` so that
parameter and key generation are reproducible from a seed. That makes
this module simulation-grade, not constant-time hardened.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SYMMETRIC_KEY_LEN = 16

# Default Miller-Rabin round count: error probability <= 4^-40.
DEFAULT_PRIMALITY_ROUNDS = 40

# Modulus sizes accepted by parameter generation. The prime search
# grows steeply with the size: 2048 bits already takes seconds.
MIN_MODULUS_BITS = 16
MAX_MODULUS_BITS = 2048

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
)


class DhError(ValueError):
    """Base class for key-agreement errors."""


class InvalidModulusError(DhError):
    """Modular exponentiation requires a modulus of at least 2."""


class ParameterSizeError(DhError):
    """Requested modulus size outside the supported range."""


class InvalidPeerValueError(DhError):
    """Peer public value outside the accepted range [2, p-2]."""


@dataclass(frozen=True)
class DhParams:
    """Public group parameters: prime modulus ``p`` and base ``w``.

    The constructor checks only the cheap range constraint ``2 <= w < p``;
    primality of ``p`` is the generator's responsibility (and is what
    :func:`is_probable_prime` certifies in tests).
    """

    p: int
    w: int

    def __post_init__(self) -> None:
        if self.p < 2:
            raise DhError(f"modulus must be >= 2, got {self.p}")
        if not 2 <= self.w < self.p:
            raise DhError(f"base must satisfy 2 <= w < p, got w={self.w}, p={self.p}")


@dataclass(frozen=True)
class DhKeyPair:
    """Secret exponent plus the matching public value ``w^secret mod p``."""

    private_exponent: int
    public_value: int


def mod_exp(base: int, exponent: int, modulus: int) -> int:
    """Compute ``base ** exponent % modulus`` with builtin ``pow``.

    The checks are part of the contract, not of ``pow``: ``pow`` reads a
    negative exponent as a modular inverse and accepts a modulus of 1.

    Raises:
        InvalidModulusError: if ``modulus < 2``.
        DhError: if ``base`` or ``exponent`` is negative.
    """
    if modulus < 2:
        raise InvalidModulusError(f"modulus must be >= 2, got {modulus}")
    if base < 0 or exponent < 0:
        raise DhError("base and exponent must be non-negative")
    return pow(base, exponent, modulus)


def is_probable_prime(n: int, rounds: int = DEFAULT_PRIMALITY_ROUNDS,
                      rng: random.Random | None = None) -> bool:
    """Miller-Rabin primality test with ``rounds`` random witnesses.

    Always true for primes; false for composites except with probability
    at most 4**-rounds. Deterministic for a given ``rng`` seed.
    """
    if rounds < 1:
        raise DhError(f"rounds must be >= 1, got {rounds}")
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n == q:
            return True
        if n % q == 0:
            return False
    if rng is None:
        rng = random.Random()

    # n - 1 = 2^r * d with d odd
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = mod_exp(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def generate_dh_params(bit_length: int, rng: random.Random,
                       rounds: int = DEFAULT_PRIMALITY_ROUNDS) -> DhParams:
    """Draw a random prime ``p`` of exactly ``bit_length`` bits and a base.

    The base is chosen uniformly in ``[2, p-2]``; verifying it generates
    the full group would require factoring ``p - 1``, which the protocol
    does not need.

    Raises:
        ParameterSizeError: if ``bit_length`` is outside
            ``[MIN_MODULUS_BITS, MAX_MODULUS_BITS]``.
    """
    if not MIN_MODULUS_BITS <= bit_length <= MAX_MODULUS_BITS:
        raise ParameterSizeError(
            f"modulus size must be in [{MIN_MODULUS_BITS}, {MAX_MODULUS_BITS}] "
            f"bits, got {bit_length}")
    while True:
        # Force the top bit (exact bit length) and the low bit (odd).
        candidate = rng.getrandbits(bit_length) | (1 << (bit_length - 1)) | 1
        if is_probable_prime(candidate, rounds, rng):
            p = candidate
            break
    w = rng.randrange(2, p - 1)
    return DhParams(p=p, w=w)


def generate_keypair(params: DhParams, rng: random.Random) -> DhKeyPair:
    """Pick a secret exponent uniformly in ``[2, p-2]`` and publish ``w^secret``."""
    private = rng.randrange(2, params.p - 1)
    return keypair_from_private(params, private)


def keypair_from_private(params: DhParams, private_exponent: int) -> DhKeyPair:
    """Build the key pair for a known secret exponent (range-checked)."""
    if not 2 <= private_exponent <= params.p - 2:
        raise DhError(
            f"private exponent must be in [2, p-2], got {private_exponent}")
    public = mod_exp(params.w, private_exponent, params.p)
    return DhKeyPair(private_exponent=private_exponent, public_value=public)


def compute_shared_secret(params: DhParams, own_private: int,
                          peer_public: int) -> int:
    """Raise the peer's public value to our secret exponent: ``S`` in ``[0, p)``.

    Peer values of 0, 1 and p-1 are rejected along with anything outside
    (0, p): they force the secret into {0, 1, p-1} regardless of our
    exponent, so accepting them would let a sender choose the key.
    """
    if not 2 <= peer_public <= params.p - 2:
        raise InvalidPeerValueError(
            f"peer public value must be in [2, p-2], got {peer_public}")
    return mod_exp(peer_public, own_private, params.p)


def derive_symmetric_key(secret: int) -> bytes:
    """Flatten a shared secret into exactly 16 octets.

    Takes the 16 least-significant octets of the big-endian encoding,
    left-padded with zeros for small secrets. Deliberately a plain
    truncation rather than a hash: the mapping stays auditable in tests,
    and it is injective for secrets below 2**128.
    """
    return (secret & ((1 << 128) - 1)).to_bytes(SYMMETRIC_KEY_LEN, "big")
