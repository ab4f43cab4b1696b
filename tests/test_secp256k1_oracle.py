"""secp256k1 scalar multiplication against the `cryptography` package.

Both paths of curve.scalar_mul for points of secp256k1 are checked at 256
bits: d * G, which takes the fixed-base table, against the package's public
key for d, and d * P for another point P, which takes the GLV split, against
its ECDH output and, once from a fresh odd-multiple table and once from the
cached one, against the public key for d * d' where P is d' * G. Scalars
d + n and d + 2n check that k is reduced mod n on both paths.
scalar_mul_sum's j * G + k * (r * G) is checked against the public key for
(j + k * r) mod n, and against O when that is 0. The package is a test-only
dependency (the `test` extra); without it this module is skipped.
"""

from random import Random

import pytest

ec = pytest.importorskip("cryptography.hazmat.primitives.asymmetric.ec")

from hlslab.curve import (  # noqa: E402
    INFINITY,
    Point,
    _odd_multiples,
    scalar_mul,
    scalar_mul_sum,
)


def _private_key(d):
    return ec.derive_private_key(d, ec.SECP256K1())


def _public_point(d):
    numbers = _private_key(d).public_key().public_numbers()
    return Point(numbers.x, numbers.y)


def test_fixed_base_matches_public_keys(secp256k1):
    e = secp256k1
    rng = Random(256)
    for _ in range(50):
        d = rng.randrange(1, e.n)
        assert scalar_mul(d, e.g, e) == _public_point(d), d
    assert scalar_mul(d + e.n, e.g, e) == scalar_mul(d + 2 * e.n, e.g, e) == _public_point(d)


def test_variable_base_matches_ecdh(secp256k1):
    e = secp256k1
    rng = Random(257)
    for _ in range(20):
        d, d_peer = rng.randrange(1, e.n), rng.randrange(1, e.n)
        peer = _public_point(d_peer)
        assert peer != e.g
        shared = _private_key(d).exchange(ec.ECDH(), _private_key(d_peer).public_key())
        for k in (d, d + e.n, d + 2 * e.n):
            assert scalar_mul(k, peer, e).x == int.from_bytes(shared, "big"), k


def test_variable_base_repeats_from_the_cached_table(secp256k1):
    e = secp256k1
    rng = Random(258)
    for _ in range(20):
        _odd_multiples.cache_clear()
        d, d_peer = rng.randrange(1, e.n), rng.randrange(1, e.n)
        peer, expected = _public_point(d_peer), _public_point(d * d_peer % e.n)
        assert scalar_mul(d, peer, e) == expected, d
        assert scalar_mul(d, peer, e) == expected, d
        assert _odd_multiples.cache_info().hits == 1


def test_sum_matches_public_keys(secp256k1):
    e = secp256k1
    rng = Random(259)
    cases = [(rng.randrange(e.n), rng.randrange(e.n), rng.randrange(1, e.n)) for _ in range(20)]
    k, r = rng.randrange(1, e.n), rng.randrange(1, e.n)
    cancelling = -k * r % e.n
    cases += [(0, k, r), (k, 0, r), (0, 0, r), (cancelling, k, r), (cancelling + e.n, k + e.n, r)]
    for j, k, r in cases:
        total = (j + k * r) % e.n
        expected = INFINITY if total == 0 else _public_point(total)
        assert scalar_mul_sum(j, k, _public_point(r), e) == expected, (j, k, r)
