"""Diffie-Hellman key agreement over multi-precision integers.

Implements the two-party exchange used by the beaconing protocol: both
sides agree on a prime modulus ``p`` and a base ``w < p``, each picks a
secret exponent, publishes ``w^secret mod p``, and derives the shared
value ``S = w^(a*b) mod p`` from the peer's public number. The shared
value is then flattened into a fixed 16-octet symmetric key.

Public values use a fixed-base comb kept on each group object (Lim and
Lee, "More Flexible Exponentiation with Precomputation", CRYPTO '94;
Handbook of Applied Cryptography, §14.6.3, Algorithm 14.117): ``w`` and
``p`` never change within a group, so from its first power of ``w`` a
group keeps, for each of two blocks, the products of every subset of
eight fixed powers of ``w``. A power of ``w`` then costs one squaring
and at most two multiplications per sixteen exponent bits. A shared
secret ``Y^x`` comes from that table too when the caller knows ``y``
with ``Y = w^y``, as ``w^(x*y mod (p-1))``: the two are equal whenever
``w^(p-1) = 1 (mod p)``, which holds for every prime ``p`` and is
checked once per group. Other secrets and :func:`mod_exp` are builtin
``pow``.

Miller-Rabin spends its full-size ``pow`` only where cheaper tests do
not settle the answer: trial division by the primes up to 199, then,
when ``g = gcd(n, product of the primes in (199, GCD_FILTER_BOUND])``
has ``1 < g < n``, each round taken mod ``g`` first. That is exact:
``g`` divides ``n``, so a witness that passes mod ``n`` passes mod
``g``, and one that fails mod ``g`` is one the full round rejects. The
result and every draw from the caller's ``rng`` are those of the plain
test.

A prime search tests uniform random odd candidates of the requested
size, so the prime it keeps is confirmed with the Miller-Rabin rounds
that the average-case bound of Damgard, Landrock and Pomerance needs for
an error of at most 2^-80 (the bound FIPS 186-4, Appendix C.3, uses):
6 rounds at 512 bits and 3 from 847 bits on, instead of the 40 that
bound any single ``n``. Below 171 bits that bound never reaches 2^-80,
and the search keeps 40 rounds.

All randomness flows through a caller-supplied ``random.Random`` so that
parameter and key generation are reproducible from a seed. That makes
this module simulation-grade, not constant-time hardened.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property

SYMMETRIC_KEY_LEN = 16

# Miller-Rabin rounds that bound the error for any n by 4^-40 = 2^-80. A
# prime search confirms its prime to the same 2^-80 with the rounds of
# _search_rounds, and uses these where that bound cannot reach it.
DEFAULT_PRIMALITY_ROUNDS = 40

# Modulus sizes accepted by parameter generation. The prime search
# grows steeply with the size: 2048 bits already takes seconds.
MIN_MODULUS_BITS = 16
MAX_MODULUS_BITS = 2048

# The fixed-base comb: a group's exponents are split into COMB_TEETH rows
# of a bits each, a the bit length of p over COMB_TEETH rounded up to a
# multiple of COMB_BLOCKS, and each row into COMB_BLOCKS blocks of b =
# a / COMB_BLOCKS bits. The table holds, per block, the 2^COMB_TEETH
# subset products of that block's COMB_TEETH powers of w: 512 entries,
# 51 KiB at 512 bits. A power then takes b squarings and at most
# COMB_BLOCKS multiplications per column, and no combine step. Timed on a
# 2-vCPU Xeon VM, it takes 25 us at 256 bits, 124 at 512 and 4.5 ms at
# 2048, against 39 us, 186 us and 6.2 ms from the 4-bit fixed-base
# window it replaced (HAC Algorithm 14.109), and 125 us, 0.71 and 21 ms
# by pow. The table takes 0.33 ms to build at 256 bits, 1.2 ms at 512
# and 26 ms at 2048, against 0.11, 0.61 and 21 ms for the window's.
COMB_TEETH = 8
COMB_BLOCKS = 2

# Primes up to which a composite is rejected before the full-size
# Miller-Rabin exponentiation (Handbook of Applied Cryptography, Note
# 4.45): those up to 199 by trial division, the rest by the
# strong-probable-prime test mod gcd(n, their product). Timed on a 2-vCPU
# Xeon VM at 512 bits, that gcd costs 41 us against 781 us for one pow,
# and over 40 seeded searches the pows per search fall from 40.1 to 24.8
# for 35 gcds. Counts times unit costs make 2^14 the cheapest bound: 2^13
# and 2^15 cost about 2 % more per search, 2^12 7 % and 2^16 11 %.
GCD_FILTER_BOUND = 2 ** 14


def _primes_up_to(bound: int) -> list[int]:
    """The primes up to ``bound``, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * (bound + 1)
    sieve[:2] = b"\0\0"
    for q in range(2, math.isqrt(bound) + 1):
        if sieve[q]:
            sieve[q * q::q] = bytes(len(range(q * q, bound + 1, q)))
    return [q for q in range(bound + 1) if sieve[q]]


_SMALL_PRIMES = tuple(_primes_up_to(199))
_GCD_FILTER_PRODUCT = math.prod(_primes_up_to(GCD_FILTER_BOUND)[len(_SMALL_PRIMES):])
# Maps the text of a binary numeral to one 0 or 1 byte per digit.
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


class DhError(ValueError):
    """Base class for key-agreement errors."""


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

    # The table and its check are kept on the instance, outside the
    # fields: equality, hash and repr are those of (p, w), and the table
    # dies with the group.
    @cached_property
    def _comb(self) -> tuple[int, list[int], list[int]]:
        # The row length a and, for each block j, the table whose entry d
        # is the product of w^(2^(i*a + j*b)) over the bits i set in d.
        p = self.p
        a = -(-p.bit_length() // COMB_TEETH)
        a += -a % COMB_BLOCKS
        b = a // COMB_BLOCKS
        # bases[k] = w^(2^(k*b)), so block j of row i starts at
        # bases[i*COMB_BLOCKS + j].
        bases = [self.w]
        for _ in range(COMB_TEETH * COMB_BLOCKS - 1):
            power = bases[-1]
            for _ in range(b):
                power = power * power % p
            bases.append(power)
        blocks = []
        for j in range(COMB_BLOCKS):
            table = [1]
            for base in bases[j::COMB_BLOCKS]:
                table += [entry * base % p for entry in table]
            blocks.append(table)
        return a, *blocks

    @cached_property
    def _reducible(self) -> bool:
        # Whether exponents of w may be reduced mod p-1: always for a
        # prime p (Fermat), not for every composite one.
        return self._power(self.p - 1) == 1

    def _power(self, exponent: int) -> int:
        """``w^exponent mod p`` for ``0 <= exponent < p``, from the group's
        fixed-base comb (Handbook of Applied Cryptography, Algorithm
        14.117), built on the first call."""
        p = self.p
        a, low, high = self._comb
        # One byte per exponent bit, the top row first. Shifted in top row
        # first, row i ends up shifted left by i bits, so byte c of
        # `digits` is the 8-bit digit of column a-1-c: its bit i is the
        # exponent's bit i*a + a-1-c. No byte exceeds 255, so no bit
        # carries into the next. digits[:b] are the high block's columns
        # and digits[b:] the low block's, each top column first.
        bits = format(exponent, f"0{COMB_TEETH * a}b").encode().translate(_BIT_BYTES)
        columns = 0
        for start in range(0, COMB_TEETH * a, a):
            columns = columns << 1 | int.from_bytes(bits[start:start + a], "big")
        digits = columns.to_bytes(a, "big")
        b = a // COMB_BLOCKS
        result = 1
        for high_digit, low_digit in zip(digits[:b], digits[b:]):
            result = result * result % p
            if high_digit:
                result = result * high[high_digit] % p
            if low_digit:
                result = result * low[low_digit] % p
        return result


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
        DhError: if ``modulus < 2``, or ``base`` or ``exponent`` is negative.
    """
    if modulus < 2:
        raise DhError(f"modulus must be >= 2, got {modulus}")
    if base < 0 or exponent < 0:
        raise DhError("base and exponent must be non-negative")
    return pow(base, exponent, modulus)


def is_probable_prime(n: int, rounds: int, rng: random.Random) -> bool:
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

    # n - 1 = 2^r * d with d odd
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    # g divides n, so a witness that passes mod n passes mod g too: one
    # that fails mod g fails the same round mod n, after the same draws.
    # When g == n, n is a product of primes up to the bound, and the test
    # mod g would be the test itself.
    g = math.gcd(n, _GCD_FILTER_PRODUCT)
    filtered = 1 < g < n
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        if filtered and not _strong_round(pow(a, d, g), r, g):
            return False
        if not _strong_round(mod_exp(a, d, n), r, n):
            return False
    return True


def _strong_round(x: int, r: int, m: int) -> bool:
    """Whether witness ``a`` passes a Miller-Rabin round mod ``m``, given
    ``x = a^d mod m`` for ``n - 1 = 2^r * d``: ``x`` is 1, or one of ``x,
    x^2, ..., x^(2^(r-1))`` is ``m - 1`` mod ``m``."""
    if x == 1 or x == m - 1:
        return True
    for _ in range(r - 1):
        x = x * x % m
        if x == m - 1:
            return True
    return False


def _search_rounds(bit_length: int) -> int:
    """Miller-Rabin rounds that confirm a prime found among uniform random
    odd ``bit_length``-bit candidates with an error of at most 2^-80.

    The least ``t`` in ``[3, k // 9]`` for which the average-case bound of
    Damgard, Landrock and Pomerance (Math. Comp. 61, 1993, Theorem 2),
    ``k^(3/2) * 2^t * t^(-1/2) * 4^(2 - sqrt(t*k))``, is at most 2^-80,
    and ``DEFAULT_PRIMALITY_ROUNDS`` when there is none (below 171 bits).
    """
    k = bit_length
    for t in range(3, k // 9 + 1):
        log2_error = 1.5 * math.log2(k) + t - 0.5 * math.log2(t) + 2 * (2 - math.sqrt(t * k))
        if log2_error <= -2 * DEFAULT_PRIMALITY_ROUNDS:
            return t
    return DEFAULT_PRIMALITY_ROUNDS


def generate_dh_params(bit_length: int, rng: random.Random) -> DhParams:
    """Draw a random prime ``p`` of exactly ``bit_length`` bits and a base.

    Candidates are uniform random odd ``bit_length``-bit integers, and the
    one kept passes ``_search_rounds(bit_length)`` Miller-Rabin rounds. A
    composite candidate all but always fails at its first witness, so the
    round count changes only what is drawn after ``p``.

    The base is chosen uniformly in ``[2, p-2]``; verifying it generates
    the full group would require factoring ``p - 1``, which the protocol
    does not need.

    Raises:
        DhError: if ``bit_length`` is outside
            ``[MIN_MODULUS_BITS, MAX_MODULUS_BITS]``.
    """
    if not MIN_MODULUS_BITS <= bit_length <= MAX_MODULUS_BITS:
        raise DhError(
            f"modulus size must be in [{MIN_MODULUS_BITS}, {MAX_MODULUS_BITS}] "
            f"bits, got {bit_length}")
    rounds = _search_rounds(bit_length)
    while True:
        # Force the top bit (exact bit length) and the low bit (odd).
        candidate = rng.getrandbits(bit_length) | (1 << (bit_length - 1)) | 1
        if is_probable_prime(candidate, rounds, rng):
            p = candidate
            break
    w = rng.randrange(2, p - 1)
    return DhParams(p=p, w=w)


def check_group(params: DhParams) -> DhParams:
    """Return ``params`` if :func:`generate_keypair` can draw a key pair in it.

    Two kinds of base fail, and neither is ever drawn by
    :func:`generate_dh_params`: one with ``w^2 = 1 (mod p)``, whose
    powers are only 1 and ``w`` (none in ``[2, p-2]`` for ``w = p-1``),
    and one that some power sends to 0, which a composite ``p`` allows:
    every power of it from the bit length of ``p`` on is 0, so almost no
    exponent gives a usable value. Any other base gives a public value
    in ``[2, p-2]`` for more than a third of all exponents.

    Raises:
        DhError: for such a base.
    """
    p, w = params.p, params.w
    if w * w % p == 1 or pow(w, p.bit_length(), p) == 0:
        raise DhError(f"base w={w} has no usable public value mod p={p}")
    return params


def generate_keypair(params: DhParams, rng: random.Random) -> DhKeyPair:
    """Pick a secret exponent uniformly in ``[2, p-2]`` and publish ``w^secret``,
    redrawing while ``w^secret`` is outside ``[2, p-2]``, which a peer rejects.

    Raises:
        DhError: if the group fails :func:`check_group`.
    """
    p = check_group(params).p
    while True:
        keypair = keypair_from_private(params, rng.randrange(2, p - 1))
        if 2 <= keypair.public_value <= p - 2:
            return keypair


def keypair_from_private(params: DhParams, private_exponent: int) -> DhKeyPair:
    """Build the key pair for a known secret exponent (range-checked).

    The public value comes from the group's fixed-base table, built on
    the group's first power, and equals ``pow(w, x, p)``.
    """
    if not 2 <= private_exponent <= params.p - 2:
        raise DhError(
            f"private exponent must be in [2, p-2], got {private_exponent}")
    public = params._power(private_exponent)
    return DhKeyPair(private_exponent=private_exponent, public_value=public)


def compute_shared_secret(params: DhParams, own_private: int, peer_public: int,
                          peer_private: int | None = None) -> int:
    """Raise the peer's public value to our secret exponent: ``S`` in ``[0, p)``.

    Peer values of 0, 1 and p-1 are rejected along with anything outside
    (0, p): they force the secret into {0, 1, p-1} regardless of our
    exponent, so accepting them would let a sender choose the key.

    A caller that knows the peer's exponent ``y``, with ``peer_public =
    w^y mod p``, may pass it as ``peer_private``: the secret then comes
    from the group's fixed-base table as ``w^(x*y mod (p-1))`` when
    ``w^(p-1) = 1`` holds in the group, and equals ``pow``'s.
    """
    p = params.p
    if not 2 <= peer_public <= p - 2:
        raise DhError(
            f"peer public value must be in [2, p-2], got {peer_public}")
    if peer_private is not None and own_private >= 0 and params._reducible:
        return params._power(own_private * peer_private % (p - 1))
    # mod_exp rejects a negative exponent.
    return mod_exp(peer_public, own_private, p)


def derive_symmetric_key(secret: int) -> bytes:
    """Flatten a shared secret into exactly 16 octets.

    Takes the 16 least-significant octets of the big-endian encoding,
    left-padded with zeros for small secrets. Deliberately a plain
    truncation rather than a hash: the mapping stays auditable in tests,
    and it is injective for secrets below 2**128.
    """
    return (secret & ((1 << 128) - 1)).to_bytes(SYMMETRIC_KEY_LEN, "big")
