"""Modular-arithmetic layer, cross-checked against brute-force computations."""

import math
from random import Random

import pytest

from hlslab.arith import (
    crt_combine,
    hex_to_int,
    int_to_hex,
    is_probable_prime,
    mod_inv,
)
from hlslab.errors import NotInvertibleError


class TestHexCodec:
    @pytest.mark.parametrize(
        "value,text",
        [(0, "0x0"), (1, "0x1"), (15, "0xf"), (255, "0xff"), (41887, "0xa39f")],
    )
    def test_known_encodings(self, value, text):
        assert int_to_hex(value) == text
        assert hex_to_int(text) == value

    def test_roundtrip(self):
        rng = Random(1)
        for _ in range(200):
            x = rng.getrandbits(rng.randrange(1, 300))
            assert hex_to_int(int_to_hex(x)) == x

    def test_uppercase_input_accepted(self):
        assert hex_to_int("0XFF") == 255

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            int_to_hex(-1)

    @pytest.mark.parametrize("bad", ["ff", "17", "", "0b11", 17, None])
    def test_unprefixed_rejected(self, bad):
        with pytest.raises(ValueError):
            hex_to_int(bad)


class TestModInv:
    def test_known_value(self):
        # 3 * 5 = 15 = 2*7 + 1
        assert mod_inv(3, 7) == 5

    def test_product_is_one(self):
        rng = Random(2)
        for _ in range(300):
            m = rng.randrange(2, 1000)
            a = rng.randrange(1, m)
            if math.gcd(a, m) != 1:
                continue
            assert a * mod_inv(a, m) % m == 1

    @pytest.mark.parametrize("a,m", [(0, 7), (6, 9), (14, 7)])
    def test_not_invertible(self, a, m):
        with pytest.raises(NotInvertibleError):
            mod_inv(a, m)

    def test_error_is_a_value_error(self):
        # callers using plain ValueError handling must keep working
        with pytest.raises(ValueError):
            mod_inv(0, 5)


class TestIsProbablePrime:
    def test_against_sieve(self):
        limit = 2000
        sieve = [True] * limit
        sieve[0] = sieve[1] = False
        for i in range(2, int(limit**0.5) + 1):
            if sieve[i]:
                for j in range(i * i, limit, i):
                    sieve[j] = False
        for x in range(limit):
            assert is_probable_prime(x) == sieve[x], x

    @pytest.mark.parametrize(
        "x,expected",
        [
            (2**31 - 1, True),  # Mersenne prime
            (2**32 + 1, False),  # 641 * 6700417
            (561, False),  # Carmichael number
            (41539, True),
            (38, False),
        ],
    )
    def test_known_larger_inputs(self, x, expected):
        assert is_probable_prime(x) == expected

    def test_large_input_random_witness_path(self, secp256k1):
        assert is_probable_prime(secp256k1.q)
        assert is_probable_prime(secp256k1.n)
        assert not is_probable_prime(secp256k1.q * secp256k1.n)

    def test_negative_and_small(self):
        assert not is_probable_prime(-7)
        assert not is_probable_prime(0)
        assert not is_probable_prime(1)


class TestCrtCombine:
    def test_known_values(self):
        assert crt_combine([(2, 3), (3, 5)]) == 8
        assert crt_combine([(1, 2), (2, 3), (3, 5)]) == 23

    def test_residue_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            crt_combine([(5, 3)])
        with pytest.raises(ValueError, match="out of range"):
            crt_combine([(-1, 3)])

    def test_modulus_too_small(self):
        with pytest.raises(ValueError, match="modulus must be >= 2"):
            crt_combine([(0, 1)])

    def test_non_coprime_moduli(self):
        with pytest.raises(ValueError, match="not coprime"):
            crt_combine([(1, 6), (1, 4)])

    def test_empty_system_is_zero(self):
        assert crt_combine([]) == 0

    def test_congruences_hold(self):
        rng = Random(4)
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        for _ in range(100):
            moduli = rng.sample(primes, k=rng.randrange(1, 5))
            pairs = [(rng.randrange(m), m) for m in moduli]
            x = crt_combine(pairs)
            product = math.prod(moduli)
            assert 0 <= x < product
            for r, m in pairs:
                assert x % m == r
