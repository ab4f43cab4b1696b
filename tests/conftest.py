"""Shared fixtures and references.

The three bundled curves, the bad-parameter files, an a = 0 curve, a
cofactor-4 curve, brute-force point lists and counts that the curve
module is checked against, and its plain double-and-add on Points.
"""

import json
from pathlib import Path

import pytest

from hlslab.cli import load_curve
from hlslab.curve import (
    INFINITY,
    CurveParams,
    Point,
    _double_and_add,
    curve_from_dict,
    point_add,
    scalar_mul,
    scalar_mul_sum,
)

DATA_DIR = Path(__file__).parent / "data"

# F_17, a = 2, b = 0: 20 points, so no prime n describes the whole group.
# G = (8, 1) has order 5; (3, 4) lies on the curve and has order 10.
HOST_20 = CurveParams(q=17, a=2, b=0, g=Point(8, 1), n=5, cofactor=4)


def load_bad_fixture(name: str) -> CurveParams:
    return curve_from_dict(json.loads((DATA_DIR / f"{name}.json").read_text()))


@pytest.fixture(scope="session")
def toy() -> CurveParams:
    return load_curve("toy17")


@pytest.fixture(scope="session")
def mid16() -> CurveParams:
    return load_curve("mid16")


@pytest.fixture(scope="session")
def secp256k1() -> CurveParams:
    return load_curve("secp256k1")


@pytest.fixture(scope="session")
def a0_q55009() -> CurveParams:
    """y^2 = x^3 + 38070 over F_55009, prime order 54541; six twist classes of b'."""
    return load_bad_fixture("a0_q55009")


def character_sum(q, a, b):
    """q + 1 plus the Legendre symbol of x^3 + ax + b mod an odd prime q over every x.

    The symbol is t^((q-1)/2) mod q, by Euler's criterion.
    """
    legendre = {0: 0, 1: 1, q - 1: -1}
    half = (q - 1) // 2
    return q + 1 + sum(legendre[pow(x * x * x + a * x + b, half, q)] for x in range(q))


def affine_points(q, a, b):
    """One (x, y) with y^2 == x^3 + ax + b mod q per x that has one, by ascending x.

    Any odd q, prime or not: y is the largest root in [0, q//2], which for
    prime q is the only one.
    """
    roots = {y * y % q: y for y in range(q // 2 + 1)}
    rhs = ((x, (x * x * x + a * x + b) % q) for x in range(q))
    return [Point(x, roots[t]) for x, t in rhs if t in roots]


def double_and_add(k, p, e):
    """k * p by the curve module's plain double-and-add, the path every other is checked against.

    That path runs on (q, a) and integer pairs; this takes and gives Points,
    and O for k == 0 or p == O, as scalar_mul does. k is never reduced.
    """
    if k == 0 or p.is_infinity:
        return INFINITY
    s = _double_and_add(k, (p.x, p.y), e.q, e.a)
    return INFINITY if s is None else Point(*s)


def outcome(k, p, e, mul):
    """mul(k, p, e), or the type and message of what it raised."""
    try:
        return mul(k, p, e)
    except Exception as exc:  # every path must keep every exception as it was
        return type(exc), str(exc)


def sum_outcomes(j, k, p, e):
    """scalar_mul_sum(j, k, p, e) and point_add of the two products, or what each raised."""
    return [
        outcome(k, p, e, lambda k, p, e: scalar_mul_sum(j, k, p, e)),
        outcome(k, p, e, lambda k, p, e: point_add(scalar_mul(j, e.g, e), scalar_mul(k, p, e), e)),
    ]
