"""scalar_mul against plain double-and-add on small curves drawn by Hypothesis.

The curves have q < 2^12, prime or odd composite, a = 0 or random, and a
declared n and cofactor that may be wrong. The multiplied points lie on the
curve or off it. Whichever path scalar_mul takes, its outcome (the point,
or the type and message of what it raised) must be double-and-add's for
every k in [0, 4n]. A second test runs the GLV split on every a = 0 curve
of prime order over a small q == 1 mod 3, where its lattice basis is tiny.

Hypothesis is a test-only dependency (the `test` extra); without it this
module is skipped. Examples come from a fixed seed and no example database
is written.
"""

from functools import lru_cache
from math import isqrt

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, seed, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import affine_points, outcome  # noqa: E402
from hlslab.arith import is_probable_prime  # noqa: E402
from hlslab.curve import (  # noqa: E402
    INFINITY,
    CurveParams,
    Point,
    _double_and_add,
    _group,
    count_points,
    is_on_curve,
    scalar_mul,
)

SETTINGS = settings(max_examples=100, database=None, deadline=None)


def double_and_add(k, p, e):
    return INFINITY if k == 0 or p.is_infinity else _double_and_add(k, p, e)


def assert_same_outcomes(p, e, ks):
    for k in ks:
        assert outcome(k, p, e, scalar_mul) == outcome(k, p, e, double_and_add), (e, p, k)


def on_curve_points(q, a, b):
    """Every affine (x, y) in [0, q)^2 with y^2 = x^3 + ax + b mod q, up to the sign of y."""
    return affine_points(q, a, b)


@st.composite
def points(draw, q, a, b):
    """O, an affine point satisfying y^2 = x^3 + ax + b mod q, or any (x, y) in [0, q)^2."""
    kind = draw(st.sampled_from(["on", "any", "infinity"]))
    on_curve = on_curve_points(q, a, b)
    if kind == "on" and on_curve:
        p = draw(st.sampled_from(on_curve))
        return draw(st.sampled_from([p, Point(p.x, (-p.y) % q)]))
    if kind == "infinity":
        return INFINITY
    return Point(draw(st.integers(0, q - 1)), draw(st.integers(0, q - 1)))


SMALL_PRIMES = [q for q in range(5, 1 << 12, 2) if is_probable_prime(q)]


@st.composite
def curves(draw):
    """A curve of prime order n with G on it, or any curve, G and declared n."""
    odd = st.integers(1, (1 << 11) - 1).map(lambda i: 2 * i + 1)
    q = draw(st.one_of(st.sampled_from(SMALL_PRIMES), odd))
    a = 0 if draw(st.booleans()) else draw(st.integers(0, q - 1))
    b = draw(st.integers(0, q - 1))
    if is_probable_prime(q) and draw(st.booleans()):
        # the first of the next 50 coefficients whose curve has a prime
        # number of points; for a = 0 and q == 2 mod 3 there is none
        sums = ((c % q, count_points(q, a, c % q)) for c in range(b, b + 50))
        found = next(((c, n) for c, n in sums if is_probable_prime(n)), None)
        if found is not None and on_curve_points(q, a, found[0]):
            b, n = found
            g = draw(st.sampled_from(on_curve_points(q, a, b)))
            return CurveParams(q=q, a=a, b=b, g=g, n=n, cofactor=draw(st.integers(1, 8)))
    g = draw(points(q, a, b))
    n = draw(st.integers(1, 2 * q + 2))
    return CurveParams(q=q, a=a, b=b, g=g, n=n, cofactor=draw(st.integers(1, 8)))


@seed(20101002)
@SETTINGS
@given(st.data())
def test_every_path_matches_double_and_add(data):
    e = data.draw(curves())
    ks = data.draw(st.lists(st.integers(0, 4 * e.n), min_size=1, max_size=4))
    for p in (e.g, data.draw(points(e.q, e.a, e.b))):
        assert_same_outcomes(p, e, [*ks, e.n, e.n + 1])


@lru_cache(maxsize=1)
def glv_curves():
    """(q, b, n) for y^2 = x^3 + b of prime order n over prime q == 1 mod 3, q < 2^10.

    Only those with n == 1 mod 3 and 2n > q + 1 + floor(2 sqrt q), the ones
    whose group scalar_mul can prove, b in 1..6.
    """
    found = []
    for q in range(7, 1 << 10, 6):
        if not is_probable_prime(q):
            continue
        for b in range(1, 7):
            n = count_points(q, 0, b)
            if n % 3 == 1 and is_probable_prime(n) and 2 * n > q + 1 + isqrt(4 * q):
                found.append((q, b, n))
    return tuple(found)


@seed(20101003)
@SETTINGS
@given(st.data())
def test_glv_split_matches_double_and_add(data):
    q, b, n = data.draw(st.sampled_from(glv_curves()))
    g = data.draw(st.sampled_from(on_curve_points(q, 0, b)))
    e = CurveParams(q=q, a=0, b=b, g=g, n=n)
    assert _group(e).glv is not None
    p = data.draw(points(q, 0, b))
    ks = data.draw(st.lists(st.integers(0, 4 * n), min_size=1, max_size=6))
    assert_same_outcomes(p, e, [*ks, n - 1, n, n + 1])
    if is_on_curve(p, e):
        assert all(double_and_add(k, p, e) == scalar_mul(k % n, p, e) for k in ks)
