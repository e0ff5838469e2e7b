import dataclasses
import math
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from beaconkx import dh
from beaconkx.dh import (
    COMB_BLOCKS,
    COMB_TEETH,
    DEFAULT_PRIMALITY_ROUNDS,
    GCD_FILTER_BOUND,
    MAX_MODULUS_BITS,
    MIN_MODULUS_BITS,
    DhError,
    DhKeyPair,
    DhParams,
    _search_rounds,
    check_group,
    compute_shared_secret,
    derive_symmetric_key,
    generate_dh_params,
    generate_keypair,
    is_probable_prime,
    keypair_from_private,
    mod_exp,
)
from beaconkx.sim import SimConfig, Simulation


def naive_mod_pow(base: int, exponent: int, modulus: int) -> int:
    """Independent oracle: literal repeated multiplication."""
    result = 1 % modulus
    for _ in range(exponent):
        result = result * base % modulus
    return result


class TestModExp:
    @pytest.mark.parametrize("base, exp, mod, expected", [
        (5, 6, 23, 8),
        (5, 0, 23, 1),
        (5, 15, 23, 19),
    ])
    def test_known_values(self, base, exp, mod, expected):
        assert mod_exp(base, exp, mod) == expected
        assert naive_mod_pow(base, exp, mod) == expected

    def test_rejects_small_modulus(self):
        with pytest.raises(DhError, match="modulus must be >= 2"):
            mod_exp(5, 6, 1)
        with pytest.raises(DhError, match="modulus must be >= 2"):
            mod_exp(5, 6, 0)

    def test_rejects_negative_operands(self):
        with pytest.raises(DhError):
            mod_exp(-5, 6, 23)
        with pytest.raises(DhError):
            mod_exp(5, -6, 23)

    @given(st.integers(0, 10_000), st.integers(0, 500), st.integers(2, 1000))
    def test_matches_naive_oracle(self, base, exp, mod):
        assert mod_exp(base, exp, mod) == naive_mod_pow(base, exp, mod)

    @given(st.integers(0, 2**512), st.integers(0, 2**512), st.integers(2, 2**512))
    def test_matches_builtin_pow(self, base, exp, mod):
        assert mod_exp(base, exp, mod) == pow(base, exp, mod)

    def test_large_exponent_is_fast(self):
        # Would never terminate with O(exponent) multiplication.
        assert mod_exp(3, 2**600 + 5, 2**127 - 1) == pow(3, 2**600 + 5, 2**127 - 1)


class TestPrimality:
    @pytest.mark.parametrize("n, expected", [
        (23, True),
        (25, False),
        (2, True),
        (3, True),
        (0, False),
        (1, False),
        (4, False),
    ])
    def test_small_cases(self, n, expected):
        assert is_probable_prime(n, 20, random.Random(1)) is expected

    def test_agrees_with_sympy(self):
        rng = random.Random(7)
        for n in range(2, 5000):
            assert is_probable_prime(n, 20, rng) == sympy.isprime(n), n

    @pytest.mark.parametrize("n", [561, 1105, 1729, 2465, 41041, 62745])
    def test_rejects_carmichael_numbers(self, n):
        assert not is_probable_prime(n, 20, random.Random(3))

    def test_large_known_prime(self):
        assert is_probable_prime(2**127 - 1, 40, random.Random(1))
        assert not is_probable_prime(2**127 - 3, 40, random.Random(1))

    def test_deterministic_given_seed(self):
        n = 2**89 - 1
        runs = [is_probable_prime(n, 10, random.Random(5)) for _ in range(3)]
        assert runs == [True, True, True]

    def test_rounds_precondition(self):
        with pytest.raises(DhError):
            is_probable_prime(23, 0, random.Random(1))


class TestParamGeneration:
    def test_requested_bit_length(self):
        params = generate_dh_params(16, random.Random(7))
        assert params.p.bit_length() == 16
        assert is_probable_prime(params.p, 40, random.Random(0))
        assert 2 <= params.w < params.p

    def test_512_bit_invariants(self):
        params = generate_dh_params(512, random.Random(1))
        assert params.p.bit_length() == 512
        assert is_probable_prime(params.p, 40, random.Random(0))
        assert 2 <= params.w < params.p

    def test_too_small_rejected(self):
        with pytest.raises(DhError, match="modulus size must be in"):
            generate_dh_params(8, random.Random(1))

    def test_too_large_rejected(self):
        with pytest.raises(DhError, match="modulus size must be in"):
            generate_dh_params(MAX_MODULUS_BITS + 1, random.Random(1))

    def test_deterministic_given_seed(self):
        assert generate_dh_params(64, random.Random(9)) == \
            generate_dh_params(64, random.Random(9))

    def test_params_constructor_checks_base_range(self):
        with pytest.raises(DhError):
            DhParams(p=23, w=1)
        with pytest.raises(DhError):
            DhParams(p=23, w=23)


def average_case_error(k: int, t: int) -> float:
    """The Damgard-Landrock-Pomerance bound on the chance that a search
    over random odd k-bit candidates keeps a composite after t rounds."""
    return k ** 1.5 * 2.0 ** t * t ** -0.5 * 4.0 ** (2 - math.sqrt(t * k))


def forty_round_search(bits: int, rng: random.Random) -> int:
    """The prime search as it was before its rounds followed the bound."""
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate, 40, rng):
            return candidate


class TestPrimeSearch:
    @pytest.mark.parametrize("bits, rounds", [
        (64, 40), (170, 40), (171, 19), (256, 11), (512, 6), (1024, 3), (2048, 3)])
    def test_round_table(self, bits, rounds):
        assert _search_rounds(bits) == rounds

    def test_each_count_is_the_least_that_meets_the_bound(self):
        # The bound holds for 3 <= t <= k/9; where no such t reaches
        # 2^-80, the search keeps the rounds that bound any n.
        target = 2.0 ** -80
        for k in range(MIN_MODULUS_BITS, MAX_MODULUS_BITS + 1):
            rounds = _search_rounds(k)
            allowed = range(3, k // 9 + 1)
            if rounds == DEFAULT_PRIMALITY_ROUNDS:
                assert all(average_case_error(k, t) > target for t in allowed), k
            else:
                assert rounds in allowed and average_case_error(k, rounds) <= target, k
                assert rounds == 3 or average_case_error(k, rounds - 1) > target, k

    @pytest.mark.parametrize("bits", [16, 32, 64, 256, 512])
    def test_sympy_certifies_the_primes(self, bits):
        for seed in range(6):
            p = generate_dh_params(bits, random.Random(seed)).p
            assert p.bit_length() == bits
            assert sympy.isprime(p), (bits, seed)

    @pytest.mark.parametrize("bits, seeds", [(256, range(8)), (512, range(4))])
    def test_prime_does_not_depend_on_the_round_count(self, bits, seeds):
        # A composite candidate fails at its first witness, so fewer
        # confirming rounds change only what is drawn after the prime.
        for seed in seeds:
            assert generate_dh_params(bits, random.Random(seed)).p == \
                forty_round_search(bits, random.Random(seed)), seed


REFERENCE_SMALL_PRIMES = tuple(sympy.primerange(2, 200))


def reference_is_probable_prime(n: int, rounds: int, rng: random.Random) -> bool:
    """is_probable_prime as it was before the gcd filter: every round a
    full-size exponentiation. The filtered test must match it draw for draw."""
    if rounds < 1:
        raise DhError(f"rounds must be >= 1, got {rounds}")
    if n < 2:
        return False
    for q in REFERENCE_SMALL_PRIMES:
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


def passes_strong_test(a: int, n: int, m: int) -> bool:
    """Whether a^d = 1 or a^(2^j d) = -1 (mod m) for some j < r, where
    n - 1 = 2^r d with d odd: a Miller-Rabin round of n, read mod m."""
    r = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> r
    return pow(a, d, m) == 1 or any(
        pow(a, d << j, m) == m - 1 for j in range(r))


@pytest.fixture
def full_size_exps(monkeypatch):
    """The moduli of every dh.mod_exp call, in order."""
    moduli = []

    def counted(base, exponent, modulus):
        moduli.append(modulus)
        return pow(base, exponent, modulus)

    monkeypatch.setattr(dh, "mod_exp", counted)
    return moduli


class TestGcdFilter:
    """The strong test mod gcd(n, primes in (199, GCD_FILTER_BOUND]) before
    each full-size round changes no result and no draw."""

    FILTER_PRIMES = tuple(sympy.primerange(200, GCD_FILTER_BOUND + 1))

    @staticmethod
    def assert_same_as_reference(n: int, rounds: int, seed) -> bool:
        reference_rng, rng = random.Random(seed), random.Random(seed)
        expected = reference_is_probable_prime(n, rounds, reference_rng)
        assert is_probable_prime(n, rounds, rng) is expected, (n, rounds, seed)
        assert rng.getstate() == reference_rng.getstate(), (n, rounds, seed)
        return expected

    @pytest.mark.parametrize("bits, count", [
        (16, 400), (64, 400), (256, 300), (512, 200), (2048, 40)])
    def test_random_odd_numbers(self, bits, count):
        draws = random.Random(f"gcd-filter/{bits}")
        for index in range(count):
            n = draws.getrandbits(bits) | (1 << (bits - 1)) | 1
            self.assert_same_as_reference(n, _search_rounds(bits), index)

    @pytest.mark.parametrize("n", [2**127 - 1, 2**521 - 1, 2**607 - 1],
                             ids=["M127", "M521", "M607"])
    def test_primes(self, n):
        for seed in range(3):
            assert self.assert_same_as_reference(n, 6, seed)

    # 257 * m - 1 = 2^8 * odd for m = 1 (mod 512), so a witness of order
    # 2^t mod the Fermat prime 257 passes there at level t - 1, up to r - 1.
    LARGE_PRIMES = (2**127 - 1, 2**521 - 1,
                    next(m for m in range(2**127 + 1, 2**128, 512) if sympy.isprime(m)))

    @pytest.mark.parametrize("q", [211, 223, 257, 4099, 16381])
    def test_filter_prime_times_a_large_prime(self, q, full_size_exps):
        assert q in self.FILTER_PRIMES
        for m in self.LARGE_PRIMES:
            for seed in range(20):
                full_size_exps.clear()
                assert not self.assert_same_as_reference(q * m, 6, seed)
                # The full-size round runs only after the witness passes mod q.
                a = random.Random(seed).randrange(2, q * m - 1)
                assert full_size_exps == ([q * m] if passes_strong_test(a, q * m, q) else [])

    @pytest.mark.parametrize("q", [211, 4099, 16381])
    def test_filter_prime_and_its_square(self, q, full_size_exps):
        # q is its own gcd and takes the plain test. For q^2 the gcd is q,
        # and q - 1 divides q^2 - 1: every witness but a multiple of q
        # passes mod q, and the full-size round rejects it.
        for seed in range(10):
            assert self.assert_same_as_reference(q, 6, seed)
            full_size_exps.clear()
            assert not self.assert_same_as_reference(q * q, 6, seed)
            a = random.Random(seed).randrange(2, q * q - 1)
            assert bool(full_size_exps) == (a % q != 0)

    @pytest.mark.parametrize("factors", [
        (211, 421, 631),          # all three filter primes: gcd == n
        (5581, 11161, 16741),     # (6k+1)(12k+1)(18k+1) at k = 930
        (8191, 16381, 24571),     # ... at k = 1365
    ])
    def test_carmichael_numbers(self, factors, full_size_exps):
        n = math.prod(factors)
        g = math.gcd(n, math.prod(self.FILTER_PRIMES))
        assert all(pow(a, n - 1, n) == 1 for a in (2, 3, 5, 7))
        outcomes = set()
        for seed in range(40):
            full_size_exps.clear()
            self.assert_same_as_reference(n, 6, seed)
            a = random.Random(seed).randrange(2, n - 1)
            passed = g == n or passes_strong_test(a, n, g)
            outcomes.add(passed)
            assert bool(full_size_exps) == passed, seed
        assert outcomes == ({True} if g == n else {False, True})

    def test_dense_group_search_count(self, full_size_exps):
        # The fixed search of a seed-1 scene: 14 full-size exponentiations
        # without the filter, 12 with it.
        params = generate_dh_params(512, random.Random("1/group"))
        assert (params.p % 2**64, params.w % 2**64) == \
            (0x7f190817bae0c331, 0xb9b534ae07a278f0)
        assert len(full_size_exps) <= 12


class ScriptedRng(random.Random):
    """An rng whose ``randrange`` returns the given draws in turn."""

    def __init__(self, *draws: int) -> None:
        super().__init__(0)
        self.draws = list(draws)

    def randrange(self, start, stop=None, step=1):
        return self.draws.pop(0)


class TestKeypair:
    @pytest.mark.parametrize("private, public", [(6, 8), (15, 19)])
    def test_forced_private_exponent(self, private, public):
        params = DhParams(p=23, w=5)
        keypair = keypair_from_private(params, private)
        assert keypair.public_value == public

    def test_public_value_in_range(self):
        params = generate_dh_params(32, random.Random(2))
        rng = random.Random(3)
        for _ in range(50):
            kp = generate_keypair(params, rng)
            assert 0 < kp.public_value < params.p
            assert 2 <= kp.private_exponent <= params.p - 2

    def test_private_out_of_range_rejected(self):
        params = DhParams(p=23, w=5)
        for bad in (0, 1, 22, 23):
            with pytest.raises(DhError):
                keypair_from_private(params, bad)

    def test_deterministic_given_seed(self):
        params = DhParams(p=23, w=5)
        assert generate_keypair(params, random.Random(4)) == \
            generate_keypair(params, random.Random(4))

    def test_redraws_a_public_value_the_peer_would_reject(self):
        # 2^11 = 1 (mod 23): the pair with exponent 11 is drawn again.
        rng = ScriptedRng(11, 3)
        assert generate_keypair(DhParams(23, 2), rng) == DhKeyPair(3, 8)
        assert rng.draws == []

    @pytest.mark.parametrize("p, w", [
        (23, 22),       # w = p-1: every power is 1 or p-1
        (3, 2),         # no exponent at all in [2, p-2]
        (15, 4),        # 4^2 = 1: only 1 and 4
        (9, 3),         # 3^2 = 0
        (2**100, 2),    # 2^x = 0 from x = 100 on
        (3 * 2**100, 6),  # 6^x = 0 from x = 100 on
    ])
    def test_group_without_usable_public_values_is_rejected(self, p, w):
        params = DhParams(p, w)
        with pytest.raises(DhError, match="no usable public value"):
            check_group(params)
        rng = random.Random(1)
        state = rng.getstate()
        with pytest.raises(DhError, match="no usable public value"):
            generate_keypair(params, rng)
        assert rng.getstate() == state

    @pytest.mark.parametrize("p, w", [(5, 2), (5 * 2**100, 2), (21, 2)])
    def test_other_groups_draw_in_range_pairs(self, p, w):
        # 2^2 = -1 (mod 5); 2^x mod 5 * 2^100 is never 0, 1 or p-1; 21
        # is composite.
        params = check_group(DhParams(p, w))
        rng = random.Random(2)
        for _ in range(20):
            pair = generate_keypair(params, rng)
            assert 2 <= pair.public_value <= p - 2
            assert pair.public_value == pow(w, pair.private_exponent, p)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_any_two_generated_pairs_agree(self, data):
        p = data.draw(st.one_of(
            st.sampled_from(list(sympy.primerange(5, 300))),
            st.integers(5, 2**16).map(sympy.prevprime).filter(lambda q: q >= 5)))
        params = DhParams(p, data.draw(st.integers(2, p - 2)))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        a, b = generate_keypair(params, rng), generate_keypair(params, rng)
        secret = compute_shared_secret(params, a.private_exponent, b.public_value)
        assert secret == compute_shared_secret(params, b.private_exponent, a.public_value)
        assert secret == compute_shared_secret(
            params, a.private_exponent, b.public_value, b.private_exponent)


class TestFixedBaseTable:
    @given(st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_keypair_and_secret_equal_pow(self, data):
        # Any modulus will do for the arithmetic; widths that are not a
        # multiple of 16 leave the top row short. Half the moduli
        # up to 256 bits are prime, where secrets come from the table; a
        # composite one may fail w^(p-1) = 1, and its secrets must still
        # be pow's.
        bits = data.draw(st.one_of(
            st.integers(16, 1024),
            st.sampled_from([16, 17, 255, 256, 257, 1023, 1024])))
        p = data.draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
        if bits <= 256 and data.draw(st.booleans()) and sympy.prevprime(p) >> (bits - 1):
            p = sympy.prevprime(p)
        params = DhParams(p=p, w=data.draw(st.integers(2, p - 1)))
        w = params.w
        middle = data.draw(st.lists(st.integers(2, p - 2), max_size=4))
        # The edges go first, as the power that builds the table, and last.
        for x in [2, p - 2, *middle, 2, p - 2]:
            assert keypair_from_private(params, x).public_value == pow(w, x, p)
        a, low, high = params._comb
        assert a == COMB_BLOCKS * -(-bits // (COMB_TEETH * COMB_BLOCKS))
        b = a // COMB_BLOCKS
        assert len(low) == len(high) == 1 << COMB_TEETH
        top = COMB_TEETH - 1
        assert low[1 << top] == pow(w, 1 << (top * a), p)
        assert high[1 << top] == pow(w, 1 << (top * a + b), p)
        x, y = data.draw(st.integers(0, p)), data.draw(st.integers(2, p - 2))
        peer_public = pow(w, y, p)
        if 2 <= peer_public <= p - 2:
            assert compute_shared_secret(params, x, peer_public, y) == pow(peer_public, x, p)
        assert params._reducible is (pow(w, p - 1, p) == 1)

    def test_comb_holds_subset_products_per_block(self):
        # p = 23 has 5 bits: rows of a = 2 bits (5/8 rounded up, then up
        # to even), blocks of b = 1. Block j's entry for digit 1 << i is
        # w^(2^(2i + j)), and the powers 5^(2^k) mod 23 for k = 0..15 are
        # 5 2 4 16 3 9 12 6 13 8 18 2 4 16 3 9.
        params = DhParams(p=23, w=5)
        keypair_from_private(params, 2)
        a, low, high = params._comb
        assert a == 2
        assert [low[1 << i] for i in range(8)] == [5, 4, 3, 12, 13, 18, 4, 3]
        assert [high[1 << i] for i in range(8)] == [2, 16, 9, 6, 8, 2, 16, 9]
        for j, block in enumerate((low, high)):
            assert block[0] == 1
            assert [block[1 << i] for i in range(8)] == [
                pow(5, 1 << (i * a + j), 23) for i in range(8)]
            # Every other entry is the product of its digit's bits.
            for digit in range(256):
                product = math.prod(block[1 << i] for i in range(8) if digit >> i & 1)
                assert block[digit] == product % 23
        # 6 = 0b110: bit 1 is row 0 of block 1, bit 2 row 1 of block 0,
        # so w^6 = high[0b1] * low[0b10] = 2 * 4 = 8 (mod 23).
        assert high[0b1] * low[0b10] % 23 == 8
        assert keypair_from_private(params, 6).public_value == 8

    @pytest.mark.parametrize("bits", [16, 17, 31, 32, 33, 255, 256, 257,
                                      511, 512, 513, 2047, 2048])
    def test_power_at_the_comb_edges_equals_pow(self, bits):
        rng = random.Random(bits)
        p = 1 << (bits - 1) | rng.getrandbits(bits - 1) | 1
        params = DhParams(p=p, w=rng.randrange(2, p))
        w = params.w
        a = params._comb[0]
        b = a // COMB_BLOCKS
        # Each row and block starts at a multiple of b: the bit there and
        # the one below it, which ends the block before.
        boundaries = [k for start in range(0, COMB_TEETH * a, b)
                      for k in (start - 1, start) if 0 <= k < bits]
        all_ones = (1 << (bits - 1)) - 1
        for exponent in [0, 1, p - 2, p - 1, all_ones, *(1 << k for k in boundaries)]:
            assert params._power(exponent) == pow(w, exponent, p), exponent

    def test_first_pair_builds_the_comb_and_later_pairs_reuse_it(self):
        params = generate_dh_params(64, random.Random(5))
        assert "_comb" not in vars(params)
        keypair_from_private(params, 99)
        comb = vars(params)["_comb"]
        assert comb
        keypair_from_private(params, 100)
        assert params._comb is comb

    def test_first_secret_with_the_peer_exponent_uses_the_table(self):
        params = generate_dh_params(64, random.Random(7))
        peer_public = pow(params.w, 12345, params.p)
        secret = compute_shared_secret(params, 99, peer_public, 12345)
        assert secret == pow(peer_public, 99, params.p)
        assert vars(params)["_comb"]
        assert vars(params)["_reducible"] is True

    def test_secret_without_the_peer_exponent_leaves_the_group_alone(self):
        params = generate_dh_params(64, random.Random(7))
        for x in range(2, 5):
            compute_shared_secret(params, x, 5)
        assert vars(params) == {"p": params.p, "w": params.w}

    def test_negative_exponent_is_rejected_on_both_paths(self):
        params = DhParams(p=23, w=5)
        keypair_from_private(params, 6)
        for peer_private in (None, 6):
            with pytest.raises(DhError):
                compute_shared_secret(params, -3, 8, peer_private)

    def test_table_keeps_equality_hash_and_repr(self):
        params = generate_dh_params(64, random.Random(6))
        twin = DhParams(p=params.p, w=params.w)
        before = repr(params)
        for x in range(2, 5):
            keypair_from_private(params, x)
        assert vars(params)["_comb"]
        assert params == twin and twin == params
        assert hash(params) == hash(twin)
        assert {twin: "group"}[params] == "group"
        assert repr(params) == repr(twin) == before
        assert dataclasses.asdict(params) == {"p": params.p, "w": params.w}

    def test_each_simulation_builds_its_own_table(self):
        config = SimConfig(n_vehicles=3, dh_bits=64, duration=1.0)
        first, second = Simulation(config), Simulation(config)
        groups = [sim.nodes[1].dh_params for sim in (first, second)]
        assert groups[0] == groups[1]
        assert groups[0] is not groups[1]
        tables = [vars(group)["_comb"] for group in groups]
        assert tables[0]
        assert tables[0] == tables[1]
        assert tables[0] is not tables[1]


class TestSharedSecret:
    def test_textbook_exchange(self):
        params = DhParams(p=23, w=5)
        assert compute_shared_secret(params, 6, 19) == 2
        assert compute_shared_secret(params, 15, 8) == 2

    @pytest.mark.parametrize("peer", [0, 1, 22, 23, -1])
    def test_degenerate_peer_values_rejected(self, peer):
        params = DhParams(p=23, w=5)
        with pytest.raises(DhError, match="peer public value must be in"):
            compute_shared_secret(params, 6, peer)

    def test_exhaustive_agreement_small_prime(self):
        # An honest exponent can still land on a degenerate public value
        # (e.g. 5^11 mod 23 = 22); both sides must then refuse identically,
        # and every accepted exchange must agree.
        params = DhParams(p=23, w=5)
        for a in range(2, 22):
            for b in range(2, 22):
                alpha = mod_exp(params.w, a, params.p)
                beta = mod_exp(params.w, b, params.p)
                degenerate = {1, params.p - 1}
                if alpha in degenerate or beta in degenerate:
                    side = alpha if alpha in degenerate else beta
                    with pytest.raises(DhError, match="peer public value must be in"):
                        compute_shared_secret(params, a if side == beta else b, side)
                    continue
                assert compute_shared_secret(params, a, beta) == \
                    compute_shared_secret(params, b, alpha)

    def test_agreement_at_512_bits(self):
        rng = random.Random(11)
        params = generate_dh_params(512, rng)
        for _ in range(20):
            alice = generate_keypair(params, rng)
            bob = generate_keypair(params, rng)
            s1 = compute_shared_secret(params, alice.private_exponent, bob.public_value)
            s2 = compute_shared_secret(params, bob.private_exponent, alice.public_value)
            assert s1 == s2


class TestKeyDerivation:
    def test_small_secret_left_padded(self):
        assert derive_symmetric_key(2) == b"\x00" * 15 + b"\x02"

    def test_zero_secret(self):
        assert derive_symmetric_key(0) == b"\x00" * 16

    def test_truncates_to_low_octets(self):
        assert derive_symmetric_key(2**128 + 1) == \
            b"\x00" * 15 + b"\x01"

    def test_always_sixteen_octets(self):
        for s in (0, 1, 255, 2**64, 2**127, 2**128, 2**200 + 17):
            assert len(derive_symmetric_key(s)) == 16

    @given(st.integers(0, 2**128 - 1))
    @settings(max_examples=200)
    def test_injective_below_2_128(self, s):
        key = derive_symmetric_key(s)
        assert int.from_bytes(key, "big") == s
