import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from beaconkx.dh import (
    MAX_MODULUS_BITS,
    DhError,
    DhParams,
    InvalidModulusError,
    InvalidPeerValueError,
    ParameterSizeError,
    compute_shared_secret,
    derive_symmetric_key,
    generate_dh_params,
    generate_keypair,
    is_probable_prime,
    keypair_from_private,
    mod_exp,
)


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
        with pytest.raises(InvalidModulusError):
            mod_exp(5, 6, 1)
        with pytest.raises(InvalidModulusError):
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
        with pytest.raises(ParameterSizeError):
            generate_dh_params(8, random.Random(1))

    def test_too_large_rejected(self):
        with pytest.raises(ParameterSizeError):
            generate_dh_params(MAX_MODULUS_BITS + 1, random.Random(1))

    def test_deterministic_given_seed(self):
        assert generate_dh_params(64, random.Random(9)) == \
            generate_dh_params(64, random.Random(9))

    def test_params_constructor_checks_base_range(self):
        with pytest.raises(DhError):
            DhParams(p=23, w=1)
        with pytest.raises(DhError):
            DhParams(p=23, w=23)


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


class TestSharedSecret:
    def test_textbook_exchange(self):
        params = DhParams(p=23, w=5)
        assert compute_shared_secret(params, 6, 19) == 2
        assert compute_shared_secret(params, 15, 8) == 2

    @pytest.mark.parametrize("peer", [0, 1, 22, 23, -1])
    def test_degenerate_peer_values_rejected(self, peer):
        params = DhParams(p=23, w=5)
        with pytest.raises(InvalidPeerValueError):
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
                    with pytest.raises(InvalidPeerValueError):
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
