"""Short-Weierstrass elliptic-curve arithmetic over prime fields, desk scale.

The affine chord-and-tangent formulas, and the Jacobian doubling and mixed
addition behind scalar_mul, read only the field size q and the coefficient
a. They never consult b. That is a real property of the group law, and it
is load-bearing here: a point that satisfies y^2 = x^3 + ax + b' for some
b' != b will be processed by these same formulas, silently moving the
computation into the group of the wrong curve. Keep it that way.

scalar_mul has two paths (see its docstring), and one proof, made once per
curve, picks between them. When q is prime, e is nonsingular, G != O lies on
e, n is prime, n * G == O and 2n > q + 1 + floor(2 sqrt q), Hasse's bound
proves E(F_q) cyclic of order n, whatever cofactor the parameters declare.
A point on such a curve has its k reduced mod n; multiples of G come from a
table of fixed-base windows, and on a = 0 curves with q == n == 1 mod 3
other multiples are split by the GLV endomorphism. Every other curve and
point takes plain double-and-add with k as given. b only picks the path, by
telling whether G and the point lie on e; it never changes the result,
because both paths compute the same group element, and a point off e (a
companion-curve point of the invalid-curve attack) is multiplied exactly as
before, unreduced and unsplit.

Point counts come from one private order function, behind count_points
and the companion-curve scan of find_invalid_curve_point; both refuse a
field size that is not an odd prime before anything is counted. On a
nonsingular curve the order function pins #E by Shanks and Mestre's
baby-step giant-step over the Hasse interval, in O(q^(1/4)) group
operations, and it finds points by Euler's criterion and a modular square
root, so nothing of size q is built. A singular curve's count has a closed
form, and only the rare curve whose first points leave the count open
(tiny fields) is counted point by point, in O(q).

Points deliberately carry no curve reference and are never checked against
any equation on construction, because off-curve points are first-class
inputs in this lab.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from math import isqrt
from random import Random
from typing import Optional

from .arith import hex_to_int, int_to_hex, is_probable_prime, mod_inv, require_keys
from .errors import HlsLabError, NotFoundError, NotInvertibleError, ResourceLimitError

__all__ = [
    "ENUMERATION_LIMIT",
    "INFINITY",
    "CurveParams",
    "InvalidCurvePoint",
    "Point",
    "count_points",
    "curve_from_dict",
    "curve_to_dict",
    "find_invalid_curve_point",
    "is_on_curve",
    "is_singular",
    "point_add",
    "point_from_obj",
    "point_neg",
    "point_to_obj",
    "scalar_mul",
    "search_prime_order_curve",
]

# Exhaustive sweeps (point counting, invalid-curve search) refuse fields
# larger than this; O(q) work stays under seconds at this size.
ENUMERATION_LIMIT = 1 << 20


@dataclass(frozen=True)
class Point:
    """Affine point (x, y) or the point at infinity (both coordinates None)."""

    x: Optional[int]
    y: Optional[int]

    def __post_init__(self) -> None:
        if (self.x is None) != (self.y is None):
            raise ValueError("both coordinates must be None (infinity) or integers")
        if self.x is not None:
            if self.x < 0 or self.y < 0:
                raise ValueError("affine coordinates must be nonnegative")

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __repr__(self) -> str:
        if self.is_infinity:
            return "Point(infinity)"
        return f"Point({self.x}, {self.y})"


INFINITY = Point(None, None)


@dataclass(frozen=True)
class CurveParams:
    """Domain parameter set (q, a, b, base point g, order n, cofactor).

    Construction checks only ranges, not the curve-theoretic invariants
    (base point on curve, n * g == O, q prime, ...). That is intentional:
    the validation checklists in the pki module are the enforcement vehicle,
    and they need broken parameter sets to be representable.
    """

    q: int
    a: int
    b: int
    g: Point
    n: int
    cofactor: int = 1

    def __post_init__(self) -> None:
        if self.q < 3 or self.q % 2 == 0:
            raise ValueError(f"field size must be an odd integer >= 3, got {self.q}")
        for name in ("a", "b"):
            v = getattr(self, name)
            if not 0 <= v < self.q:
                raise ValueError(f"coefficient {name}={v} out of range [0, {self.q - 1}]")
        if not self.g.is_infinity:
            if not (0 <= self.g.x < self.q and 0 <= self.g.y < self.q):
                raise ValueError("base point coordinates out of field range")
        if self.n < 1:
            raise ValueError(f"subgroup order must be positive, got {self.n}")
        if self.cofactor < 1:
            raise ValueError(f"cofactor must be positive, got {self.cofactor}")


def is_singular(q: int, a: int, b: int) -> bool:
    """True when the discriminant-carrying term 4a^3 + 27b^2 vanishes mod q."""
    return (4 * a * a * a + 27 * b * b) % q == 0


def is_on_curve(p: Point, e: CurveParams) -> bool:
    """Whether p satisfies y^2 = x^3 + ax + b mod q. Infinity counts as on-curve."""
    if p.is_infinity:
        return True
    return (p.y * p.y - (p.x * p.x * p.x + e.a * p.x + e.b)) % e.q == 0


def point_neg(p: Point, e: CurveParams) -> Point:
    if p.is_infinity:
        return INFINITY
    return Point(p.x, (-p.y) % e.q)


def point_add(p: Point, r: Point, e: CurveParams) -> Point:
    """Group-law sum of p and r, reading only e.q and e.a (never e.b).

    Inputs need not satisfy e's equation. Two distinct inputs sharing an x
    with y1 != -y2 lie on no common Weierstrass curve at all; the chord slope
    is then undefined and the division raises NotInvertibleError.
    """
    if p.is_infinity:
        return r
    if r.is_infinity:
        return p
    q = e.q
    if p.x == r.x and (p.y + r.y) % q == 0:
        # covers both P + (-P) and doubling a 2-torsion point (vertical tangent)
        return INFINITY
    if p.x == r.x and p.y == r.y:
        lam = (3 * p.x * p.x + e.a) * mod_inv(2 * p.y % q, q) % q
    else:
        lam = (r.y - p.y) * mod_inv((r.x - p.x) % q, q) % q
    x3 = (lam * lam - p.x - r.x) % q
    y3 = (lam * (p.x - x3) - p.y) % q
    return Point(x3, y3)


# Jacobian (X, Y, Z) stands for the affine point (X/Z^2, Y/Z^3); Z == 0 is O.
_JACOBIAN_INFINITY = (1, 1, 0)


def _jacobian_double(pt: tuple[int, int, int], e: CurveParams) -> tuple[int, int, int]:
    """2*pt in Jacobian coordinates (EFD dbl-1998-cmo-2), reading e.q and e.a only."""
    x, y, z = pt
    if z == 0 or y == 0:
        # O doubles to O, and a point with Y = 0 has a vertical tangent
        return _JACOBIAN_INFINITY
    q = e.q
    yy = y * y % q
    s = 4 * x * yy % q
    if e.a == 0:
        m = 3 * x * x % q
    else:
        zz = z * z % q
        m = (3 * x * x + e.a * zz * zz) % q
    x3 = (m * m - 2 * s) % q
    y3 = (m * (s - x3) - 8 * yy * yy) % q
    return x3, y3, 2 * y * z % q


def _jacobian_add_affine(
    pt: tuple[int, int, int], p: Point, e: CurveParams
) -> tuple[int, int, int]:
    """pt + p for Jacobian pt and affine p != O (EFD madd-2004-hmv).

    Reads e.q, and e.a only through the doubling. Shared x (H = 0) is
    decided as affine point_add decides it: equal y is a doubling, opposite
    y gives O, and any other y lies on no common curve with pt, so the chord
    slope is undefined and NotInvertibleError is raised.
    """
    x1, y1, z1 = pt
    if z1 == 0:
        return p.x % e.q, p.y % e.q, 1
    q = e.q
    z1z1 = z1 * z1 % q
    u2 = p.x * z1z1 % q
    s2 = p.y * z1 * z1z1 % q
    h = (u2 - x1) % q
    r = (s2 - y1) % q
    if h == 0:
        if r == 0:
            return _jacobian_double(pt, e)
        if (s2 + y1) % q == 0:
            return _JACOBIAN_INFINITY
        raise NotInvertibleError(f"points share x but not y up to sign; no chord mod {q}")
    hh = h * h % q
    hhh = h * hh % q
    v = x1 * hh % q
    x3 = (r * r - hhh - 2 * v) % q
    y3 = (r * (v - x3) - y1 * hhh) % q
    return x3, y3, z1 * h % q


def _scaled(x: int, y: int, z_inv: int, q: int) -> Point:
    # the affine point (X/Z^2, Y/Z^3), given 1/Z
    z_inv2 = z_inv * z_inv % q
    return Point(x * z_inv2 % q, y * z_inv2 * z_inv % q)


def _to_affine(pt: tuple[int, int, int], q: int) -> Point:
    x, y, z = pt
    return INFINITY if z == 0 else _scaled(x, y, mod_inv(z, q), q)


def _batch_to_affine(pts: list[tuple[int, int, int]], q: int) -> list[Optional[Point]]:
    """Affine form of every Jacobian point, None for O, with one field inversion.

    Montgomery's trick: invert the product of all nonzero Z once, then peel
    each Z's inverse off it with two multiplications. q must be prime.
    """
    zs = [z for _, _, z in pts if z]
    prefix = []
    acc = 1
    for z in zs:
        prefix.append(acc)
        acc = acc * z % q
    inv = mod_inv(acc, q)
    z_invs = [0] * len(zs)
    for i in range(len(zs) - 1, -1, -1):
        z_invs[i] = inv * prefix[i] % q
        inv = inv * zs[i] % q
    it = iter(z_invs)
    return [_scaled(x, y, next(it), q) if z else None for x, y, z in pts]


# Bits per digit of k in the fixed-base table for G, and the largest digit.
_WINDOW = 4
_DIGIT_MAX = (1 << _WINDOW) - 1
_Table = tuple[tuple[Optional[Point], ...], ...]
# (beta, lambda, ((a1, b1), (a2, b2))): phi(x, y) = (beta * x, y) acts on
# E(F_q) as multiplication by lambda, and a_i + b_i * lambda == 0 mod n
_Basis = tuple[tuple[int, int], tuple[int, int]]
_Glv = tuple[int, int, _Basis]


@dataclass(frozen=True)
class _Group:
    """What scalar_mul may rely on for a curve proven cyclic of prime order n.

    table: the fixed-base windows for G.
    glv: the GLV constants, or None.
    """

    table: _Table
    glv: Optional[_Glv] = None


@lru_cache(maxsize=4)
def _group(e: CurveParams) -> Optional[_Group]:
    """The table and GLV constants of e, or None unless E(F_q) is proven cyclic of order n.

    The proof: q is prime, e is nonsingular, G != O lies on e, n is prime,
    double-and-add gives n * G == O, and 2n > q + 1 + floor(2 sqrt q). Then
    G has order n, so n divides #E, and by Hasse #E <= q + 1 + 2 sqrt q < 2n,
    so #E == n. It never reads e.cofactor, which a curve file can get wrong.
    Only a proven curve gets a table, and on it every addition chain for
    k * G is the same group computation as double-and-add.

    The GLV constants exist when a == 0 and q == n == 1 mod 3: then
    (x, y) -> (beta * x, y) is an automorphism of E(F_q) of order 3, which on
    a cyclic group of prime order acts as multiplication by a root lambda of
    lambda^2 + lambda + 1 mod n. Of the two roots, the one with
    lambda * G == (beta * x_G, y_G) is kept.
    """
    g, q, n = e.g, e.q, e.n
    if g.is_infinity or not is_on_curve(g, e) or is_singular(q, e.a, e.b):
        return None
    if not (
        is_probable_prime(q)
        and 2 * n > q + 1 + isqrt(4 * q)
        and is_probable_prime(n)
        and _double_and_add(n, g, e).is_infinity
    ):
        return None
    table = _fixed_base_table(e)
    if not (e.a == 0 and q % 3 == 1 and n % 3 == 1):
        return _Group(table)
    beta = _cube_root_of_unity(q)
    phi_g = Point(beta * g.x % q, g.y)
    w = _cube_root_of_unity(n)
    for lam in (w, w * w % n):
        if _fixed_base_mul(lam, table, e) == phi_g:
            return _Group(table, (beta, lam, _short_basis(n, lam)))
    return _Group(table)


def _fixed_base_table(e: CurveParams) -> _Table:
    """Row i holds j * 16^i * G for j = 1..15 (None for O), one row per digit of n.

    Fixed-base windowing (Hankerson, Menezes and Vanstone, Guide to Elliptic
    Curve Cryptography, section 3.3.2). Built with 4 doublings from one
    row's base to the next, 14 mixed additions per row and two field
    inversions in all.

    e's group is proven cyclic of odd prime order n, so no 16^i * G is O,
    and an entry is O only when n <= 15 divides j. Then the table has one
    row and k < n, so _fixed_base_mul never reads such an entry.
    """
    q = e.q
    rows = -(-e.n.bit_length() // _WINDOW)
    bases = [_jacobian_add_affine(_JACOBIAN_INFINITY, e.g, e)]
    for _ in range(rows - 1):
        pt = bases[-1]
        for _ in range(_WINDOW):
            pt = _jacobian_double(pt, e)
        bases.append(pt)
    entries = []
    for base in _batch_to_affine(bases, q):
        pt = _JACOBIAN_INFINITY
        for _ in range(_DIGIT_MAX):
            pt = _jacobian_add_affine(pt, base, e)
            entries.append(pt)
    affine = _batch_to_affine(entries, q)
    return tuple(tuple(affine[i : i + _DIGIT_MAX]) for i in range(0, len(affine), _DIGIT_MAX))


def _cube_root_of_unity(p: int) -> int:
    # a cube root of 1 other than 1 mod a prime p == 1 mod 3: c^((p-1)/3)
    # for the first c that is not a cube
    c = 2
    while (w := pow(c, (p - 1) // 3, p)) == 1:
        c += 1
    return w


def _short_basis(n: int, lam: int) -> _Basis:
    """Two short vectors (a, b) with a + b * lam == 0 mod n and a1 b2 - a2 b1 == n.

    Extended Euclid on (n, lam) gives remainders r_i == t_i * lam mod n.
    With r_l the last remainder >= sqrt(n), the basis is (r_{l+1}, -t_{l+1})
    and the shorter of (r_l, -t_l) and (r_{l+2}, -t_{l+2}) (Guide to
    Elliptic Curve Cryptography, Algorithm 3.74).
    """
    r0, r1, t0, t1 = n, lam, 0, 1
    while r1 * r1 >= n:
        quo = r0 // r1
        r0, r1, t0, t1 = r1, r0 - quo * r1, t1, t0 - quo * t1
    quo = r0 // r1
    r2, t2 = r0 - quo * r1, t0 - quo * t1
    a1, b1 = r1, -t1
    a2, b2 = (r0, -t0) if r0 * r0 + t0 * t0 <= r2 * r2 + t2 * t2 else (r2, -t2)
    if a1 * b2 - a2 * b1 < 0:
        a2, b2 = -a2, -b2
    return (a1, b1), (a2, b2)


def _glv_split(k: int, n: int, basis: _Basis) -> tuple[int, int]:
    # k1 + k2 * lam == k mod n, with |k1| and |k2| about sqrt(n): subtract
    # from (k, 0) the lattice vector nearest to it, rounding (k, 0) =
    # (b2 k / n) v1 - (b1 k / n) v2 to integer coefficients
    (a1, b1), (a2, b2) = basis
    c1 = (2 * b2 * k + n) // (2 * n)
    c2 = (-2 * b1 * k + n) // (2 * n)
    return k - c1 * a1 - c2 * a2, -c1 * b1 - c2 * b2


def _glv_mul(k: int, p: Point, glv: _Glv, e: CurveParams) -> Point:
    """k * p as k1 * p + k2 * phi(p), by one Straus-Shamir double-and-add.

    p lies on e and 0 < k < n. Each step doubles once and adds p, phi(p) or
    their sum, chosen by one bit of |k1| and of |k2|; the signs of k1 and k2
    are folded into the points. p + phi(p) == (1 + lam) * p is never O,
    because lam is neither 1 nor -1 mod n for n > 3.
    """
    q = e.q
    beta, _, basis = glv
    k1, k2 = _glv_split(k, e.n, basis)
    p1 = Point(p.x % q, p.y % q)
    p2 = Point(beta * p1.x % q, p1.y)
    if k1 < 0:
        k1, p1 = -k1, point_neg(p1, e)
    if k2 < 0:
        k2, p2 = -k2, point_neg(p2, e)
    addends = (None, p1, p2, _to_affine(_jacobian_add_affine((p1.x, p1.y, 1), p2, e), q))
    width = max(k1.bit_length(), k2.bit_length())
    acc = _JACOBIAN_INFINITY
    for bit1, bit2 in zip(f"{k1:0{width}b}", f"{k2:0{width}b}"):
        acc = _jacobian_double(acc, e)
        digit = (bit1 == "1") + 2 * (bit2 == "1")
        if digit:
            acc = _jacobian_add_affine(acc, addends[digit], e)
    return _to_affine(acc, q)


def _fixed_base_mul(k: int, table: _Table, e: CurveParams) -> Point:
    # one table entry per nonzero digit of k < n, summed by mixed addition
    acc = _JACOBIAN_INFINITY
    for row in table:
        if not k:
            break
        digit = k & _DIGIT_MAX
        if digit:
            acc = _jacobian_add_affine(acc, row[digit - 1], e)
        k >>= _WINDOW
    return _to_affine(acc, e.q)


def _double_and_add(k: int, p: Point, e: CurveParams) -> Point:
    # k >= 1 and p != O
    acc = _jacobian_add_affine(_JACOBIAN_INFINITY, p, e)
    for bit in bin(k)[3:]:
        acc = _jacobian_double(acc, e)
        if bit == "1":
            acc = _jacobian_add_affine(acc, p, e)
    return _to_affine(acc, e.q)


def scalar_mul(k: int, p: Point, e: CurveParams) -> Point:
    """k-fold sum of p, by one of two paths that give the same point.

    Both paths work in Jacobian coordinates with mixed Jacobian+affine
    addition, so the only field inversion is the conversion back to affine
    at the end, and every formula reads only q and a, never b.

    Which path runs depends on one proof about e, made once per curve (the
    four curves used last keep it), and on whether p satisfies e's equation:

    - p on e, and E(F_q) proven cyclic of prime order n: q is prime, e is
      nonsingular, G != O lies on e, n is prime, n * G == O and
      2n > q + 1 + floor(2 sqrt q), so by Hasse's bound #E == n. Then k is
      reduced mod n, and k == 0 gives O. k * G is the sum of one entry per
      nonzero 4-bit digit of k from a table of multiples of G, with no
      doublings. When a == 0 and q == n == 1 mod 3, any other k * p is
      k1 * p + k2 * phi(p) with phi(x, y) = (beta * x, y), beta^3 == 1,
      and |k1|, |k2| about sqrt(n) (Gallant, Lambert and Vanstone, CRYPTO
      2001), taken by one double-and-add over both points, with half the
      doublings. Every other point takes double-and-add with the reduced k.
    - anything else, including every point off e and every point of a
      curve whose order is unproven (a cofactor above 1, or a wrong n):
      left-to-right double-and-add with k used as-is, never reduced.

    b is read only by the on-curve tests, which pick the path but never the
    result: on a proven curve both paths compute the same group element,
    and off e the double-and-add runs as it always has. That is what keeps
    the invalid-curve attack working: a point of a companion curve
    y^2 = x^3 + ax + b' is multiplied in that curve's group, and its k is
    not reduced mod n.
    """
    if k < 0:
        raise ValueError(f"scalar must be nonnegative, got {k}")
    if k == 0 or p.is_infinity:
        return INFINITY
    if p == e.g:
        # the proof tests that G lies on e
        group = _group(e)
        if group is not None:
            return _fixed_base_mul(k % e.n, group.table, e)
    # for any other point, reducing k changes the work only when k >= n,
    # and splitting it needs a == 0; every other k skips both checks
    elif (k >= e.n or e.a == 0) and is_on_curve(p, e):
        group = _group(e)
        if group is not None:
            k %= e.n
            if k == 0:
                return INFINITY
            if group.glv is not None:
                return _glv_mul(k, p, group.glv, e)
    return _double_and_add(k, p, e)


@lru_cache(maxsize=4)
def _prime_field(q: int) -> tuple[int, int, int]:
    """Tonelli-Shanks' constants (odd, e, c) for the field F_q.

    q - 1 == odd * 2^e, and c = z^odd for the least non-square z mod q,
    which has order 2^e.

    Raises:
        HlsLabError: q is not an odd prime.
    """
    if q == 2 or not is_probable_prime(q):
        raise HlsLabError(f"field size {q} is not an odd prime")
    odd, e = q - 1, 0
    while odd % 2 == 0:
        odd //= 2
        e += 1
    z = 2
    while pow(z, (q - 1) // 2, q) == 1:
        z += 1
    return odd, e, pow(z, odd, q)


def _square_root(t: int, q: int) -> Optional[int]:
    """The square root of t mod an odd prime q in [0, q//2], or None when t is not a square.

    Tonelli-Shanks (Cohen, A Course in Computational Algebraic Number
    Theory, Algorithm 1.5.1), whose first search for the order of t^odd is
    Euler's criterion. It raises t to one power of about q; for q == 3 mod 4
    the loop ends at once, and a non-square costs no more than a square.

    Raises:
        HlsLabError: q is not an odd prime.
    """
    odd, e, c = _prime_field(q)
    if t == 0:
        return 0
    w = pow(t, (odd - 1) // 2, q)
    # r^2 == t * u throughout, and u has order 2^i for some i < e
    r, u = w * t % q, w * w * t % q
    while u != 1:
        i, u2 = 1, u * u % q
        while u2 != 1:
            u2 = u2 * u2 % q
            i += 1
        if i == e:
            # t^((q-1)/2) == -1
            return None
        b = pow(c, 1 << (e - i - 1), q)
        r, c, e = r * b % q, b * b % q, i
        u = u * c % q
    return min(r, q - r)


def _affine_points(q: int, a: int, b: int):
    """One affine point (x, y) of y^2 = x^3 + ax + b over F_q per x that has one, by ascending x.

    q is an odd prime, and y is the root in [0, q//2] that _square_root gives.
    """
    for x in range(q):
        y = _square_root((x * x * x + a * x + b) % q, q)
        if y is not None:
            yield Point(x, y)


def _pinned_order(p: Point, e: CurveParams) -> Optional[int]:
    """The one m in the Hasse interval with m * p == O, or None when p leaves several.

    p is an affine point of e over a prime field. The interval is [lo, hi]
    = q + 1 -+ floor(2 sqrt q). Baby steps store r * p by x for r = 1..s.
    Each m in the interval is c + t for one centre c = lo + s + i(2s + 1)
    and one t in [-s, s], and m * p == O exactly when the giant step c * p
    is -t * p: O for t == 0, else a baby step's x, with the sign of t read
    from y. That t is unique, and so is each m found, only when p's order
    exceeds 2s; a smaller order shows in the baby steps as O, a y of 0 or a
    repeated x, and p is then passed over.
    """
    q = e.q
    bound = isqrt(4 * q)
    lo, hi = q + 1 - bound, q + 1 + bound
    s = isqrt(bound) + 1
    baby: dict[int, tuple[int, int]] = {}
    pt = INFINITY
    for r in range(1, s + 1):
        pt = point_add(pt, p, e)
        if pt.is_infinity or pt.y == 0 or pt.x in baby:
            return None
        baby[pt.x] = (r, pt.y)
    step = point_add(point_add(pt, pt, e), p, e)
    giant = _double_and_add(lo + s, p, e)
    found = None
    for centre in range(lo + s, hi + s + 1, 2 * s + 1):
        if giant.is_infinity:
            t = 0
        elif giant.x in baby:
            r, y = baby[giant.x]
            t = -r if giant.y == y else r
        else:
            t = None
        if t is not None and lo <= centre + t <= hi:
            if found is not None:
                return None
            found = centre + t
        giant = point_add(giant, step, e)
    return found


def _enumerated_order(q: int, a: int, b: int) -> int:
    # O plus both points (x, +-y) of every affine point found, one if y == 0
    return 1 + sum(1 if p.y == 0 else 2 for p in _affine_points(q, a, b))


# Points of a curve tried, by ascending x, before its points are enumerated
# instead
_PIN_POINTS = 8


@lru_cache(maxsize=64)
def _group_order(q: int, a: int, b: int) -> int:
    """The number of points of y^2 = x^3 + ax + b over F_q, O included, for an odd prime q.

    On a nonsingular curve, by Shanks and Mestre's baby-step giant-step
    (Washington, Elliptic Curves, 2nd ed., section 4.3; Cohen, A Course in
    Computational Algebraic Number Theory, section 7.4): #E lies in the
    Hasse interval and #E * P == O for every P, so when exactly one m in
    the interval has m * P == O for a point P, #E == m. The first
    _PIN_POINTS affine points by ascending x are tried, each with about
    3 q^(1/4) additions and one multiplication by about q. When none pins
    #E (the group's exponent leaves several multiples in the interval, as
    on tiny fields), the affine points are enumerated, in O(q).

    A singular curve has a closed form (Washington, section 2.10). With
    a == 0 it is y^2 = x^3 + b: the cusp y^2 = x^3 for q > 3, and over
    F_3 x -> x^3 + b is a bijection; q + 1 points either way. Otherwise it
    is the node y^2 = (x - alpha)^2 (x + 2 alpha) with alpha = -3b / 2a,
    and it has q + 1 - chi(3 alpha) points, chi the quadratic character.
    """
    if is_singular(q, a, b):
        if a % q == 0:
            return q + 1
        alpha = -3 * b * mod_inv(2 * a, q)
        return q if pow(3 * alpha, (q - 1) // 2, q) == 1 else q + 2
    e = CurveParams(q, a % q, b % q, INFINITY, 1)
    for p in islice(_affine_points(q, a, b), _PIN_POINTS):
        m = _pinned_order(p, e)
        if m is not None:
            return m
    return _enumerated_order(q, a, b)


def count_points(q: int, a: int, b: int) -> int:
    """#E(F_q), affine solutions of y^2 = x^3 + ax + b plus the point at infinity.

    q must be an odd prime. A nonsingular curve's count is pinned by
    baby-step giant-step over the Hasse interval (or, on the rare curve
    whose points cannot pin it, by enumerating the points); a singular
    curve's count, which is not a group order, has a closed form.

    Raises:
        ResourceLimitError: q exceeds ENUMERATION_LIMIT.
        HlsLabError: q is not an odd prime.
    """
    if q > ENUMERATION_LIMIT:
        raise ResourceLimitError(f"field size {q} exceeds enumeration limit {ENUMERATION_LIMIT}")
    _prime_field(q)
    return _group_order(q, a, b)


@dataclass(frozen=True)
class InvalidCurvePoint:
    """A point of small prime order on the companion curve y^2 = x^3 + ax + b'.

    It satisfies the b' equation and (for b' != b) not the original one, yet
    every group operation in this module treats it exactly like a legitimate
    point, because the addition law never reads b.
    """

    b_prime: int
    point: Point
    order: int


# Before a companion curve whose g-part may be non-cyclic is skipped, this
# many uniformly drawn points must all give (N'/g) * P == O; the draws that
# may be spent finding them are bounded so that no field can make the probe spin.
_PROBES = 40
_PROBE_DRAWS = 16 * _PROBES


class _CompanionScan:
    """The companion curves of one curve, counted once each by ascending b'.

    counted holds (b', N') for every b' counted so far. A prime is answered
    from those first, and the scan resumes at next_b only when none serves.
    """

    def __init__(self, e: CurveParams) -> None:
        self.e = e
        self.counted: list[tuple[int, int]] = []
        self.next_b = 1
        self.found: dict[int, InvalidCurvePoint] = {}

    def _count_next(self) -> bool:
        """Count the next companion curve; False once every b' in [1, q-1] is counted."""
        e = self.e
        while self.next_b < e.q:
            b_prime = self.next_b
            self.next_b += 1
            if b_prime == e.b or is_singular(e.q, e.a, b_prime):
                continue
            self.counted.append((b_prime, _group_order(e.q, e.a, b_prime)))
            return True
        return False

    def point_of_order(self, g: int) -> InvalidCurvePoint:
        hit = self.found.get(g)
        if hit is not None:
            return hit
        i = 0
        while i < len(self.counted) or self._count_next():
            b_prime, n_prime = self.counted[i]
            i += 1
            if n_prime % g:
                continue
            w = self._point(b_prime, n_prime, g)
            if w is not None:
                self.found[g] = InvalidCurvePoint(b_prime=b_prime, point=w, order=g)
                return self.found[g]
        raise NotFoundError(f"no companion curve over F_{self.e.q} has a subgroup of order {g}")

    def _point(self, b_prime: int, n_prime: int, g: int) -> Optional[Point]:
        """The first (N'/g) * P != O over the b' curve's points P by ascending x, or None."""
        e = self.e
        k = n_prime // g
        # a non-cyclic g-part needs the whole g-torsion over F_q, hence g | q - 1
        # (Weil pairing) and g^2 | N'; only then can every product be O
        if (e.q - 1) % g == 0 and n_prime % (g * g) == 0 and not self._probe(b_prime, k):
            return None
        for p in _affine_points(e.q, e.a, b_prime):
            w = scalar_mul(k, p, e)
            # g is prime, so w != O has order exactly g
            if not w.is_infinity:
                return w
        return None

    def _probe(self, b_prime: int, k: int) -> bool:
        """False when _PROBES seeded uniform points P of the b' curve all give k * P == O."""
        e = self.e
        rng = Random(f"{e.q}:{e.a}:{b_prime}:{k}")
        probes = 0
        for _ in range(_PROBE_DRAWS):
            x = rng.randrange(e.q)
            y = _square_root((x * x * x + e.a * x + b_prime) % e.q, e.q)
            # an x with two points is kept on every draw and one with a single
            # point (y = 0) on half of them, so every affine point is equally
            # likely; P and -P give O together, so which root is taken is moot
            if y is None or (y == 0 and rng.getrandbits(1)):
                continue
            if not scalar_mul(k, Point(x, y), e).is_infinity:
                return True
            probes += 1
            if probes == _PROBES:
                return False
        # too few points drawn to rule the curve out: let the walk decide
        return True


@lru_cache(maxsize=4)
def _companion_scan(e: CurveParams) -> _CompanionScan:
    return _CompanionScan(e)


def find_invalid_curve_point(e: CurveParams, g: int) -> InvalidCurvePoint:
    """Deterministic search for a point of exact prime order g on some b' curve.

    e.q must be an odd prime. Scans b' = 1, 2, ... (skipping b' == e.b and
    singular coefficient pairs) and counts each companion curve's points N'
    once per curve, as count_points does (baby-step giant-step over the
    Hasse interval): the scan stops at the first b' that serves g, a later
    call resumes it there, and a prime asked for later is first answered
    from the N' already counted. The four curves used last keep their scans.

    When g | N', the curve's points are multiplied, by ascending x, by N'/g
    until one gives a point other than O, which has order g. Such a point
    exists exactly when the g-part of the companion group is cyclic. It can
    be non-cyclic only when g | q - 1 and g^2 | N'; only then are 40 seeded
    uniformly random points multiplied first, and the curve is skipped when
    every product is O. A cyclic g-part gives O with probability below
    1/g <= 1/3 per point, so a curve the walk would have taken is skipped
    with probability below 3^-40.

    Raises:
        NotFoundError: no b' in [1, q-1] gives (N'/g) * P != O for any P.
        ResourceLimitError: q exceeds ENUMERATION_LIMIT.
        HlsLabError: q is not an odd prime.
    """
    if e.q > ENUMERATION_LIMIT:
        raise ResourceLimitError(
            f"field size {e.q} exceeds enumeration limit {ENUMERATION_LIMIT}"
        )
    _prime_field(e.q)
    if g < 3 or not is_probable_prime(g):
        raise ValueError(f"order must be an odd prime >= 3, got {g}")
    return _companion_scan(e).point_of_order(g)


def search_prime_order_curve(
    q_min: int, q_max: int, rng: Random, embedding_bound: int = 20
) -> CurveParams:
    """Find a curve of prime order n = #E over a prime field in [q_min, q_max].

    The result passes the full domain-parameter checklist: prime field,
    nonsingular, prime group order, n != q, trace nonzero, n^2 > 16q, and
    n not dividing q^i - 1 for i up to embedding_bound. Its base point is
    the affine point of least x. Draws at most 10,000 odd q; deterministic
    for a given rng state.

    Raises:
        ResourceLimitError: q_max exceeds ENUMERATION_LIMIT.
        NotFoundError: no draw gave such a curve.
    """
    if q_max > ENUMERATION_LIMIT:
        raise ResourceLimitError(
            f"q_max {q_max} exceeds enumeration limit {ENUMERATION_LIMIT}"
        )
    if q_min < 5 or q_min > q_max:
        raise ValueError(f"bad field range [{q_min}, {q_max}]")
    max_tries = 10_000
    for _ in range(max_tries):
        q = rng.randrange(q_min | 1, q_max + 1, 2)
        if not is_probable_prime(q):
            continue
        a = rng.randrange(q)
        b = rng.randrange(q)
        if is_singular(q, a, b):
            continue
        n = count_points(q, a, b)
        if not is_probable_prime(n):
            continue
        if n == q or n == q + 1 or n * n <= 16 * q:
            continue
        if any(pow(q % n, i, n) == 1 for i in range(1, embedding_bound + 1)):
            continue
        # the group order is an odd prime, so there is no point with y = 0
        # and any affine point generates the group
        return CurveParams(q=q, a=a, b=b, g=next(_affine_points(q, a, b)), n=n)
    raise NotFoundError(
        f"no prime-order curve found in [{q_min}, {q_max}] after {max_tries} tries"
    )


def point_to_obj(p: Point) -> object:
    """JSON-ready form: the string "infinity" or {"x": hex, "y": hex}."""
    if p.is_infinity:
        return "infinity"
    return {"x": int_to_hex(p.x), "y": int_to_hex(p.y)}


def point_from_obj(obj: object) -> Point:
    if obj == "infinity":
        return INFINITY
    if not isinstance(obj, dict) or set(obj) != {"x", "y"}:
        raise ValueError(f"expected 'infinity' or an x/y object, got {obj!r}")
    return Point(hex_to_int(obj["x"]), hex_to_int(obj["y"]))


def curve_to_dict(e: CurveParams) -> dict:
    if e.g.is_infinity:
        raise ValueError("cannot serialize a parameter set whose base point is infinity")
    return {
        "q": int_to_hex(e.q),
        "a": int_to_hex(e.a),
        "b": int_to_hex(e.b),
        "gx": int_to_hex(e.g.x),
        "gy": int_to_hex(e.g.y),
        "n": int_to_hex(e.n),
        "cofactor": int_to_hex(e.cofactor),
    }


def curve_from_dict(data: dict) -> CurveParams:
    require_keys(data, ("q", "a", "b", "gx", "gy", "n"), "curve file")
    return CurveParams(
        q=hex_to_int(data["q"]),
        a=hex_to_int(data["a"]),
        b=hex_to_int(data["b"]),
        g=Point(hex_to_int(data["gx"]), hex_to_int(data["gy"])),
        n=hex_to_int(data["n"]),
        cofactor=hex_to_int(data.get("cofactor", "0x1")),
    )
