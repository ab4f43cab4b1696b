"""secp256k1 scalar multiplication against the `cryptography` package.

Both paths of curve.scalar_mul for points of secp256k1 are checked at 256
bits: d * G, which takes the fixed-base table, against the package's public
key for d, and d * P for another point P, which takes the GLV split, against
its ECDH output. Scalars d + n and d + 2n check that k is reduced mod n on
both paths. The package is a test-only dependency (the `test` extra);
without it this module is skipped.
"""

from random import Random

import pytest

ec = pytest.importorskip("cryptography.hazmat.primitives.asymmetric.ec")

from hlslab.curve import Point, scalar_mul  # noqa: E402


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
