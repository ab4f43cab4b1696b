"""Curve group law, point counting, and the invalid-point search.

The expected multiples of the 19-point demo curve's base point were computed
by an independent script using repeated schoolbook addition, then frozen here.
"""

import dataclasses
from random import Random

import pytest

from conftest import HOST_20, character_sum, load_bad_fixture, outcome
import hlslab.curve as curve_module
from hlslab.curve import (
    _double_and_add,
    _glv_split,
    _group,
    _group_order,
    _jacobian_add_affine,
    _square_root,
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
from hlslab.errors import HlsLabError, NotFoundError, NotInvertibleError, ResourceLimitError
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

    def test_scalar_mul_k_beyond_n_wraps_around(self, toy):
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
        scalars += [e.n - 1, e.n + 5, 3 * e.n + rng.randrange(e.n)]  # k >= n: as unreduced
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
        def naive(q, a, b):
            return 1 + sum(
                1
                for x in range(q)
                for y in range(q)
                if (y * y - (x * x * x + a * x + b)) % q == 0
            )

        rng = Random(6)
        for _ in range(20):
            q = rng.choice([5, 7, 11, 13, 17, 19])
            a, b = rng.randrange(q), rng.randrange(q)
            assert count_points(q, a, b) == naive(q, a, b)
        # every singular curve, whose count has a closed form: (-3 alpha^2,
        # 2 alpha^3) for each alpha (the cusp at 0, a node otherwise), and at
        # q = 3 (0, b) for each b
        for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            singular = [(a, b) for a in range(q) for b in range(q) if is_singular(q, a, b)]
            assert len(singular) == q
            for a, b in singular:
                assert count_points(q, a, b) == naive(q, a, b), (q, a, b)

    def test_mid16_order(self, mid16):
        assert count_points(mid16.q, mid16.a, mid16.b) == mid16.n

    def test_singular_curve_still_counted(self):
        # not a group order, but the solution count is well defined
        assert count_points(17, 3, 8) == 19

    def test_enumeration_limit(self):
        # a prime above the limit, so that only the limit can refuse it
        with pytest.raises(ResourceLimitError):
            count_points(2_097_169, 2, 2)

    @pytest.mark.parametrize("q", [2, 9, 45])
    def test_refuses_field_size_not_an_odd_prime(self, q):
        # F_2 has no non-square for Tonelli-Shanks, and Z/9 and Z/45 are not fields
        with pytest.raises(HlsLabError, match=f"^field size {q} is not an odd prime$") as info:
            count_points(q, 0, 1)
        assert type(info.value) is HlsLabError


# 2^8, 2^1, 2^2 and 2^4 exactly divide q - 1, so that Tonelli-Shanks runs
# with no, one and several steps of its loop
SQRT_PRIMES = [257, 263, 269, 337]


class TestGroupOrder:
    @pytest.mark.parametrize("q", SQRT_PRIMES)
    def test_equals_character_sum(self, q):
        for a in (0, 3):
            for b in range(q):
                if not is_singular(q, a, b):
                    assert _group_order(q, a, b) == character_sum(q, a, b), (q, a, b)

    def test_falls_back_on_toy17(self, monkeypatch, toy):
        # every point of these six companion curves has order 11 or 12, of
        # which the Hasse interval [10, 26] holds two multiples each
        enumerated = _count_calls(monkeypatch, "_enumerated_order")
        orders = {
            b: _group_order.__wrapped__(toy.q, toy.a, b)
            for b in range(1, toy.q)
            if b != toy.b and not is_singular(toy.q, toy.a, b)
        }
        assert [b for _, _, b in enumerated] == [1, 6, 7, 10, 11, 16]
        assert orders == {b: character_sum(toy.q, toy.a, b) for b in orders}

    @pytest.mark.parametrize("q", SQRT_PRIMES)
    def test_square_root_equals_tables(self, q):
        # for prime q each nonzero square has one root in [1, q//2]
        roots = {y * y % q: y for y in range(q // 2 + 1)}
        for t in range(q):
            assert _square_root(t, q) == roots.get(t), (q, t)


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

    def test_composite_field_refused_before_any_count(self, monkeypatch):
        orders = _count_calls(monkeypatch, "_group_order")
        with pytest.raises(HlsLabError, match="^field size 45 is not an odd prime$"):
            find_invalid_curve_point(load_bad_fixture("composite_q45"), 3)
        assert orders == []


# two curves of the invalid-curve benchmark's pool: on q = 42331 the
# g = 3 part of the b' = 1 companion curve is Z/3 x Z/3 (N' = 3^2 * 5^2 * 11 * 17)
POOL_42331 = CurveParams(q=42331, a=19491, b=12379, g=Point(1, 20840), n=42283)
POOL_60427 = CurveParams(q=60427, a=55303, b=3086, g=Point(1, 7843), n=60623)

# default_g_budget and (order, b', x, y) per prime, captured from the
# per-prime sweep that walked every point of a curve before moving on
PINNED_COMPANIONS = {
    "toy": [(3, 1, 7, 16), (7, 8, 6, 7)],
    "mid16": [
        (3, 1, 41792, 39184), (5, 4, 24031, 2417), (7, 8, 29783, 24146),
        (11, 6, 19399, 27762), (13, 5, 26928, 1239), (17, 2, 25855, 40664),
    ],
    "pool_42331": [
        (3, 2, 28875, 13124), (5, 3, 1173, 4002), (7, 10, 21340, 16518),
        (11, 1, 9107, 16207), (13, 2, 26631, 26369), (17, 1, 14686, 831),
    ],
    "pool_60427": [
        (3, 8, 21985, 16517), (5, 2, 52973, 4586), (7, 1, 59504, 21848),
        (11, 9, 33482, 59667), (13, 5, 15329, 4407), (17, 37, 8016, 51207),
    ],
}


def _count_calls(monkeypatch, name):
    """Replace curve.<name> with a wrapper that records each call's arguments."""
    calls = []
    original = getattr(curve_module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(curve_module, name, counted)
    return calls


class TestCompanionScan:
    @pytest.fixture()
    def pool_42331(self):
        return POOL_42331

    @pytest.fixture()
    def pool_60427(self):
        return POOL_60427

    @pytest.mark.parametrize("name", sorted(PINNED_COMPANIONS))
    def test_pinned_budget_and_points(self, request, name):
        e = request.getfixturevalue(name)
        expected = PINNED_COMPANIONS[name]
        assert default_g_budget(e) == [g for g, *_ in expected]
        for g, b_prime, x, y in expected:
            icp = find_invalid_curve_point(e, g)
            assert (icp.order, icp.b_prime, icp.point) == (g, b_prime, Point(x, y))

    def test_cold_budget_counts_each_companion_curve_once(self, monkeypatch, mid16):
        # the per-prime restart computed 26 character sums for these 8 curves
        curve_module._companion_scan.cache_clear()
        sums = _count_calls(monkeypatch, "_group_order")
        default_g_budget(mid16)
        assert sorted(sums) == [(mid16.q, mid16.a, b) for b in range(1, 9)]

    def test_cold_budget_builds_no_table_over_the_field(self, monkeypatch):
        curve_module._companion_scan.cache_clear()
        curve_module._group_order.cache_clear()
        enumerated = _count_calls(monkeypatch, "_enumerated_order")
        assert default_g_budget(POOL_60427) == [g for g, *_ in PINNED_COMPANIONS["pool_60427"]]
        assert enumerated == []

    def test_non_cyclic_part_is_probed_not_walked(self, monkeypatch):
        # walking every point of the Z/3 x Z/3 curve took 21,037 multiplications
        curve_module._companion_scan.cache_clear()
        mults = _count_calls(monkeypatch, "scalar_mul")
        assert find_invalid_curve_point(POOL_42331, 3).b_prime == 2
        assert len(mults) < 200


# HOST_20's G has order 5, and a declared n of 2^12 - 1 is composite
SMALL_ORDER_G = dataclasses.replace(HOST_20, n=(1 << 12) - 1)


class TestFixedBaseTable:
    @pytest.mark.parametrize("name", ["toy", "mid16", "secp256k1"])
    def test_table_equals_double_and_add(self, request, name):
        e = request.getfixturevalue(name)
        width = 4 * len(_group(e).table)
        assert len(_group(e).table) == -(-e.n.bit_length() // 4)
        rng = Random(name)
        scalars = [1, 15, 16, 17, e.n - 1, e.n, e.n + 1, 2**width - 1, 2**width]
        scalars += [rng.randrange(1, 2 * e.n) for _ in range(50)]
        for k in scalars:
            assert scalar_mul(k, e.g, e) == _double_and_add(k, e.g, e), k

    def test_every_entry_is_its_multiple(self, toy):
        for i, row in enumerate(_group(toy).table):
            for j, entry in enumerate(row, start=1):
                assert entry == affine_scalar_mul(j * 16**i, toy.g, toy), (i, j)

    def test_small_order_base_point_takes_double_and_add(self):
        assert _group(SMALL_ORDER_G) is None
        for k in range(2**12 + 3):
            expected = affine_scalar_mul(k, SMALL_ORDER_G.g, SMALL_ORDER_G)
            assert scalar_mul(k, SMALL_ORDER_G.g, SMALL_ORDER_G) == expected, k

    def test_cofactor_four_host_takes_double_and_add(self):
        assert _group(HOST_20) is None
        for k in range(2**12 + 3):
            assert scalar_mul(k, HOST_20.g, HOST_20) == affine_scalar_mul(k, HOST_20.g, HOST_20), k

    def test_only_a_proven_curve_builds_a_table(self, monkeypatch, mid16):
        _group.cache_clear()
        tables = _count_calls(monkeypatch, "_fixed_base_table")
        for e in (HOST_20, SMALL_ORDER_G, load_bad_fixture("bad_composite_n")):
            assert _group(e) is None
        assert tables == []
        assert _group(mid16) is not None
        assert tables == [(mid16,)]

    # b = 43 puts composite_q45's G on a nonsingular curve, so only q's
    # primality keeps that one off the table
    @pytest.mark.parametrize(
        "name,b", [("bad_base_point", None), ("composite_q45", None), ("composite_q45", 43)]
    )
    def test_hostile_curve_keeps_double_and_add(self, name, b):
        # a G off e's equation, or a composite q, gets no table: every
        # result and every exception stays double-and-add's
        e = load_bad_fixture(name)
        if b is not None:
            e = dataclasses.replace(e, b=b)
            assert is_on_curve(e.g, e) and not is_singular(e.q, e.a, e.b)
        assert _group(e) is None
        outcomes = [outcome(k, e.g, e, scalar_mul) for k in range(1, 300)]
        assert outcomes == [outcome(k, e.g, e, _double_and_add) for k in range(1, 300)]
        assert any(isinstance(o, tuple) for o in outcomes) == (name == "composite_q45")

    def test_singular_curve_gets_no_table(self):
        # y^2 = x^3 over F_17 is singular; (1, 1) lies on it
        cusp = CurveParams(q=17, a=0, b=0, g=Point(1, 1), n=17)
        assert is_on_curve(cusp.g, cusp)
        assert _group(cusp) is None

    def test_scalar_mul_stays_the_only_public_multiplication(self, monkeypatch, mid16):
        # a cold table is built without the public scalar_mul, so each k * G
        # is one scalar_mul call, as the benchmark's scalar_mul counts assume
        assert [name for name in curve_module.__all__ if "mul" in name] == ["scalar_mul"]
        _group.cache_clear()
        mults = _count_calls(monkeypatch, "scalar_mul")
        curve_module.scalar_mul(12345, mid16.g, mid16)
        assert len(mults) == 1


class TestGroupProof:
    @pytest.mark.parametrize("name", ["toy", "mid16", "secp256k1"])
    def test_bundled_curves_are_proven(self, request, name):
        e = request.getfixturevalue(name)
        assert _group(e) is not None
        assert (_group(e).glv is not None) == (name == "secp256k1")

    # bad_anomalous (#E = n = q = 17) and bad_embedding (toy17 itself) are
    # refused by the domain checklist for cryptographic weaknesses, yet
    # their groups really are cyclic of prime order n
    @pytest.mark.parametrize("name", ["bad_anomalous", "bad_embedding"])
    def test_weak_but_prime_order_fixtures_are_proven(self, name):
        assert _group(load_bad_fixture(name)) is not None

    @pytest.mark.parametrize(
        "name",
        [
            "bad_base_point", "bad_composite_n", "bad_small_order",
            "composite_q45", "hang_budget_q9", "hang_weak_key_q25",
        ],
    )
    def test_proof_refused_for_hostile_fixtures(self, name):
        assert _group(load_bad_fixture(name)) is None

    def test_proof_refused_for_cofactor_curves(self):
        # n = 5 fails 2n > q + 1 + floor(2 sqrt q) whatever cofactor the curve
        # declares, and SMALL_ORDER_G's n is composite; so (n + 1) * U for
        # the order-10 U = (3, 4) is computed, not reduced to U
        u = Point(3, 4)
        for e in (HOST_20, dataclasses.replace(HOST_20, cofactor=1), SMALL_ORDER_G):
            assert _group(e) is None
            assert scalar_mul(e.n + 1, u, e) == affine_scalar_mul(e.n + 1, u, e) != u

    def test_glv_constants(self, secp256k1):
        e = secp256k1
        beta, lam, basis = _group(e).glv
        assert beta != 1 and pow(beta, 3, e.q) == 1
        assert (lam * lam + lam + 1) % e.n == 0
        assert scalar_mul(lam, e.g, e) == Point(beta * e.g.x % e.q, e.g.y)
        (a1, b1), (a2, b2) = basis
        assert (a1 + b1 * lam) % e.n == 0 and (a2 + b2 * lam) % e.n == 0
        assert a1 * b2 - a2 * b1 == e.n
        assert max(abs(v) for v in (a1, b1, a2, b2)).bit_length() <= 129

    def test_fast_path_equals_double_and_add_on_secp256k1(self, secp256k1):
        e = secp256k1
        n, lam = e.n, _group(e).glv[1]
        rng = Random(8)
        p = _double_and_add(rng.randrange(1, n), e.g, e)
        scalars = [0, 1, lam, lam - 1, lam + 1, n - 1, n, n + 1, 2 * n, 3 * n - 1]
        scalars += [rng.randrange(3 * n) for _ in range(100)]
        signs = set()
        for k in scalars:
            expected = _double_and_add(k, p, e) if k else INFINITY
            assert scalar_mul(k, p, e) == expected, k
            k1, k2 = _glv_split(k % n, n, _group(e).glv[2])
            assert (k1 + k2 * lam - k) % n == 0
            assert max(abs(k1), abs(k2)).bit_length() <= 129, k
            signs.add((k1 < 0, k2 < 0))
        assert {k1_negative for k1_negative, _ in signs} == {False, True}
        assert {k2_negative for _, k2_negative in signs} == {False, True}

    def test_off_curve_point_is_neither_reduced_nor_split_on_secp256k1(self, secp256k1):
        # a point of y^2 = x^3 + b' with b' != 7 is multiplied in that curve's
        # group: k is not reduced mod n, so n * P is not O
        e = secp256k1
        rng = Random(9)
        x, y = rng.randrange(e.q), rng.randrange(e.q)
        p = Point(x, y)
        assert (y * y - x * x * x) % e.q != e.b and not is_on_curve(p, e)
        scalars = [1, 2, e.n, e.n + 1, 2 * e.n] + [rng.randrange(1, 3 * e.n) for _ in range(5)]
        for k in scalars:
            assert scalar_mul(k, p, e) == affine_scalar_mul(k, p, e), k
        assert scalar_mul(e.n, p, e) != INFINITY
        assert scalar_mul(e.n + 1, p, e) != p


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
            search_prime_order_curve(5, 5, Random(0))


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
