"""Curve group law, point counting, and the invalid-point search.

The expected multiples of the 19-point demo curve's base point were computed
by an independent script using repeated schoolbook addition, then frozen here.
"""

import dataclasses
from random import Random

import pytest

from hlslab.curve import (
    _jacobian_add_affine,
    ENUMERATION_LIMIT,
    INFINITY,
    CurveParams,
    Point,
    count_points,
    curve_from_dict,
    curve_to_dict,
    find_invalid_curve_point,
    is_on_curve,
    is_singular,
    point_add,
    point_from_obj,
    point_neg,
    point_to_obj,
    scalar_mul,
    search_prime_order_curve,
)
from hlslab.errors import NotFoundError, NotInvertibleError, ResourceLimitError
from hlslab.scenarios import default_g_budget

# k -> k*G on the 19-point curve, frozen from repeated-addition enumeration
TOY_MULTIPLES = {
    1: (5, 1), 2: (6, 3), 3: (10, 6), 4: (3, 1), 5: (9, 16), 6: (16, 13),
    7: (0, 6), 8: (13, 7), 9: (7, 6), 10: (7, 11), 11: (13, 10), 12: (0, 11),
    13: (16, 4), 14: (9, 1), 15: (3, 16), 16: (10, 11), 17: (6, 14), 18: (5, 16),
}


def affine_scalar_mul(k, p, e):
    """Reference k*p: right-to-left double-and-add through the affine point_add."""
    acc, addend = INFINITY, p
    while k:
        if k & 1:
            acc = point_add(acc, addend, e)
        addend = point_add(addend, addend, e)
        k >>= 1
    return acc


class TestPoint:
    def test_infinity(self):
        assert INFINITY.is_infinity
        assert Point(None, None) == INFINITY
        assert repr(INFINITY) == "Point(infinity)"

    def test_affine(self):
        p = Point(5, 1)
        assert not p.is_infinity
        assert repr(p) == "Point(5, 1)"

    @pytest.mark.parametrize("x,y", [(5, None), (None, 1), (-1, 2), (2, -1)])
    def test_invalid_coordinates(self, x, y):
        with pytest.raises(ValueError):
            Point(x, y)


class TestCurveParams:
    def test_valid(self, toy):
        assert (toy.q, toy.a, toy.b, toy.n, toy.cofactor) == (17, 2, 2, 19, 1)
        assert toy.g == Point(5, 1)

    def test_infinity_base_point_is_representable(self):
        # broken parameter sets must be constructible for the validation suite
        e = CurveParams(q=17, a=3, b=8, g=INFINITY, n=47)
        assert e.g.is_infinity

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(q=16),  # even field size
            dict(q=1),
            dict(a=17),  # coefficient out of range
            dict(b=-1),
            dict(g=Point(17, 1)),  # base point out of range
            dict(n=0),
            dict(cofactor=0),
        ],
    )
    def test_range_violations(self, kwargs):
        base = dict(q=17, a=2, b=2, g=Point(5, 1), n=19, cofactor=1)
        base.update(kwargs)
        with pytest.raises(ValueError):
            CurveParams(**base)


class TestGroupLaw:
    def test_frozen_multiples_by_scalar_mul(self, toy):
        for k, (x, y) in TOY_MULTIPLES.items():
            assert scalar_mul(k, toy.g, toy) == Point(x, y), k
        assert scalar_mul(19, toy.g, toy) == INFINITY

    def test_frozen_multiples_by_repeated_addition(self, toy):
        acc = INFINITY
        for k in range(1, 19):
            acc = point_add(acc, toy.g, toy)
            assert acc == Point(*TOY_MULTIPLES[k]), k
        assert point_add(acc, toy.g, toy) == INFINITY

    def test_identity(self, toy):
        p = Point(6, 3)
        assert point_add(INFINITY, p, toy) == p
        assert point_add(p, INFINITY, toy) == p
        assert point_add(INFINITY, INFINITY, toy) == INFINITY

    def test_inverse(self, toy):
        for k, (x, y) in TOY_MULTIPLES.items():
            p = Point(x, y)
            neg = point_neg(p, toy)
            assert point_add(p, neg, toy) == INFINITY
            assert neg == Point(*TOY_MULTIPLES[19 - k])

    def test_neg_of_infinity(self, toy):
        assert point_neg(INFINITY, toy) == INFINITY

    def test_shared_x_without_common_curve_rejected(self, toy):
        # (5,1) and (5,3) lie on no common Weierstrass curve; chord undefined
        with pytest.raises(NotInvertibleError):
            point_add(Point(5, 1), Point(5, 3), toy)

    def test_addition_never_reads_b(self, toy):
        other_b = CurveParams(q=17, a=2, b=9, g=Point(5, 1), n=19)
        for k in range(1, 19):
            p = Point(*TOY_MULTIPLES[k])
            for j in range(1, 19):
                r = Point(*TOY_MULTIPLES[j])
                assert point_add(p, r, toy) == point_add(p, r, other_b)

    def test_scalar_mul_not_reduced(self, toy):
        assert scalar_mul(20, toy.g, toy) == toy.g
        assert scalar_mul(38, toy.g, toy) == INFINITY
        assert scalar_mul(0, toy.g, toy) == INFINITY

    def test_scalar_mul_negative_rejected(self, toy):
        with pytest.raises(ValueError):
            scalar_mul(-1, toy.g, toy)

    def test_scalar_mul_matches_affine_reference_on_secp256k1(self, secp256k1):
        e = secp256k1
        rng = Random(11)
        p = affine_scalar_mul(rng.randrange(1, e.n), e.g, e)
        scalars = [rng.randrange(1, e.n) for _ in range(4)]
        scalars += [e.n - 1, e.n + 5, 3 * e.n + rng.randrange(e.n)]  # k >= n: not reduced
        for k in scalars:
            assert scalar_mul(k, e.g, e) == affine_scalar_mul(k, e.g, e), k
            assert scalar_mul(k, p, e) == affine_scalar_mul(k, p, e), k
        assert scalar_mul(e.n, p, e) == INFINITY

    def test_scalar_mul_zero_scalar_and_infinity(self, toy, secp256k1):
        for e in (toy, secp256k1):
            assert scalar_mul(0, e.g, e) == INFINITY
            for k in (0, 1, 2, e.n - 1, e.n + 1):
                assert scalar_mul(k, INFINITY, e) == INFINITY

    def test_scalar_mul_companion_points_never_read_b(self, mid16):
        # off-curve inputs of each budgeted order: same multiples as the
        # affine law, whatever b the parameter set carries; k >= n is not
        # reduced mod n, which these points' orders would expose
        n = mid16.n
        for g in default_g_budget(mid16):
            icp = find_invalid_curve_point(mid16, g)
            companion = dataclasses.replace(mid16, b=icp.b_prime)
            for k in [*range(3 * g + 2), n, n + 1, 2 * n]:
                expected = affine_scalar_mul(k, icp.point, mid16)
                assert scalar_mul(k, icp.point, mid16) == expected, (g, k)
                assert scalar_mul(k, icp.point, companion) == expected, (g, k)
                assert expected.is_infinity == (k % g == 0)

    @pytest.mark.parametrize("z", [1, 2])
    def test_jacobian_add_shared_x_without_common_curve_rejected(self, toy, z):
        # (5,1) as Jacobian (5 z^2, z^3, z) plus affine (5,3): the same-x
        # refusal of point_add must not turn into a silent O
        pt = (5 * z * z % 17, z**3 % 17, z)
        with pytest.raises(NotInvertibleError):
            _jacobian_add_affine(pt, Point(5, 3), toy)
        assert _jacobian_add_affine(pt, Point(5, 16), toy)[2] == 0  # P + (-P) = O
        x, y, z2 = _jacobian_add_affine(pt, Point(5, 1), toy)  # P + P = 2P = (6, 3)
        assert (x - 6 * z2 * z2) % 17 == 0 and (y - 3 * z2**3) % 17 == 0

    def test_scalar_mul_matches_iterated_add_on_mid16(self, mid16):
        rng = Random(5)
        for _ in range(10):
            k = rng.randrange(200)
            acc = INFINITY
            for _ in range(k):
                acc = point_add(acc, mid16.g, mid16)
            assert scalar_mul(k, mid16.g, mid16) == acc


class TestOnCurve:
    def test_all_multiples_on_curve(self, toy):
        for x, y in TOY_MULTIPLES.values():
            assert is_on_curve(Point(x, y), toy)

    def test_infinity_on_curve(self, toy):
        assert is_on_curve(INFINITY, toy)

    def test_off_curve_point(self, toy):
        # (0,7) satisfies b' = 15 instead: 7^2 = 15, 0^3 + 2*0 + 2 = 2
        assert not is_on_curve(Point(0, 7), toy)

    def test_singular(self):
        assert is_singular(17, 3, 8)
        assert not is_singular(17, 2, 2)


class TestCountPoints:
    def test_toy_curve(self):
        assert count_points(17, 2, 2) == 19

    def test_small_curve(self):
        # y^2 = x^3 over F_5: affine solutions plus infinity
        assert count_points(5, 0, 0) == 6

    def test_matches_exhaustive_solution_count(self):
        rng = Random(6)
        for _ in range(20):
            q = rng.choice([5, 7, 11, 13, 17, 19])
            a, b = rng.randrange(q), rng.randrange(q)
            naive = 1 + sum(
                1
                for x in range(q)
                for y in range(q)
                if (y * y - (x * x * x + a * x + b)) % q == 0
            )
            assert count_points(q, a, b) == naive

    def test_mid16_order(self, mid16):
        assert count_points(mid16.q, mid16.a, mid16.b) == mid16.n

    def test_singular_curve_still_counted(self):
        # not a group order, but the solution count is well defined
        assert count_points(17, 3, 8) == 19

    def test_enumeration_limit(self):
        with pytest.raises(ResourceLimitError):
            count_points((1 << 21) + 1, 2, 2)


class TestFindInvalidCurvePoint:
    def test_order_three_on_toy(self, toy):
        icp = find_invalid_curve_point(toy, 3)
        assert icp.order == 3
        assert icp.b_prime != toy.b
        assert scalar_mul(3, icp.point, toy) == INFINITY
        assert scalar_mul(1, icp.point, toy) != INFINITY
        assert not is_on_curve(icp.point, toy)
        companion = CurveParams(q=17, a=2, b=icp.b_prime, g=icp.point, n=3)
        assert is_on_curve(icp.point, companion)

    def test_order_seven_on_toy(self, toy):
        icp = find_invalid_curve_point(toy, 7)
        assert icp.order == 7
        assert scalar_mul(7, icp.point, toy) == INFINITY

    def test_no_order_five_companion_over_f17(self, toy):
        # no b' in [1,16] gives a count divisible by 5 (exhaustive sweep)
        with pytest.raises(NotFoundError):
            find_invalid_curve_point(toy, 5)

    def test_cached(self, toy):
        assert find_invalid_curve_point(toy, 3) is find_invalid_curve_point(toy, 3)

    @pytest.mark.parametrize("g", [1, 2, 4, 9])
    def test_non_odd_prime_order_rejected(self, toy, g):
        with pytest.raises(ValueError):
            find_invalid_curve_point(toy, g)

    def test_enumeration_limit(self, secp256k1):
        with pytest.raises(ResourceLimitError):
            find_invalid_curve_point(secp256k1, 3)


class TestSearchPrimeOrderCurve:
    def test_reproduces_bundled_mid16(self, mid16):
        found = search_prime_order_curve(1 << 14, 1 << 16, Random(20080917))
        assert found == mid16

    def test_found_curve_properties(self):
        e = search_prime_order_curve(100, 1000, Random(7))
        assert 100 <= e.q <= 1000
        assert count_points(e.q, e.a, e.b) == e.n
        assert is_on_curve(e.g, e)
        assert scalar_mul(e.n, e.g, e) == INFINITY
        assert e.n * e.n > 16 * e.q
        assert e.n not in (e.q, e.q + 1)

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            search_prime_order_curve(100, 50, Random(0))

    def test_limit_enforced(self):
        with pytest.raises(ResourceLimitError):
            search_prime_order_curve(5, 1 << 22, Random(0))

    def test_impossible_range_exhausts(self):
        # over F_5 no prime order satisfies n^2 > 16q within the Hasse window
        with pytest.raises(NotFoundError):
            search_prime_order_curve(5, 5, Random(0), max_tries=50)


class TestSerialization:
    def test_point_roundtrip(self):
        assert point_from_obj(point_to_obj(Point(5, 1))) == Point(5, 1)
        assert point_to_obj(INFINITY) == "infinity"
        assert point_from_obj("infinity") == INFINITY

    @pytest.mark.parametrize("obj", [{"x": "0x5"}, {"x": "0x5", "y": "0x1", "z": "0x0"}, "inf", 5])
    def test_bad_point_objects(self, obj):
        with pytest.raises(ValueError):
            point_from_obj(obj)

    def test_curve_roundtrip(self, toy, mid16, secp256k1):
        for e in (toy, mid16, secp256k1):
            assert curve_from_dict(curve_to_dict(e)) == e

    def test_curve_dict_values_are_hex(self, toy):
        d = curve_to_dict(toy)
        assert d == {
            "q": "0x11", "a": "0x2", "b": "0x2", "gx": "0x5", "gy": "0x1",
            "n": "0x13", "cofactor": "0x1",
        }

    def test_infinity_base_point_not_serializable(self):
        e = CurveParams(q=17, a=3, b=8, g=INFINITY, n=47)
        with pytest.raises(ValueError):
            curve_to_dict(e)

    def test_missing_keys_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            curve_from_dict({"q": "0x11"})

    def test_cofactor_defaults_to_one(self, toy):
        d = curve_to_dict(toy)
        del d["cofactor"]
        assert curve_from_dict(d).cofactor == 1
