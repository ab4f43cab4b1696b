"""Short-Weierstrass elliptic-curve arithmetic over prime fields, desk scale.

The affine chord-and-tangent formulas, and the Jacobian doubling and mixed
addition behind scalar_mul, read only the field size q and the coefficient
a. They never consult b. That is a real property of the group law, and it
is load-bearing here: a point that satisfies y^2 = x^3 + ax + b' for some
b' != b will be processed by these same formulas, silently moving the
computation into the group of the wrong curve. Keep it that way.

Points deliberately carry no curve reference and are never checked against
any equation on construction, because off-curve points are first-class
inputs in this lab.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from random import Random
from typing import Optional

from .arith import hex_to_int, int_to_hex, is_probable_prime, mod_inv, require_keys
from .errors import NotFoundError, NotInvertibleError, ResourceLimitError

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


def scalar_mul(k: int, p: Point, e: CurveParams) -> Point:
    """k-fold sum of p; k is used as-is, never reduced.

    Left-to-right double-and-add in Jacobian coordinates with mixed
    Jacobian+affine addition, so the only field inversion is the single
    conversion back to affine at the end.
    """
    if k < 0:
        raise ValueError(f"scalar must be nonnegative, got {k}")
    if k == 0 or p.is_infinity:
        return INFINITY
    acc = _jacobian_add_affine(_JACOBIAN_INFINITY, p, e)
    for bit in bin(k)[3:]:
        acc = _jacobian_double(acc, e)
        if bit == "1":
            acc = _jacobian_add_affine(acc, p, e)
    x, y, z = acc
    if z == 0:
        return INFINITY
    q = e.q
    z_inv = mod_inv(z, q)
    z_inv2 = z_inv * z_inv % q
    return Point(x * z_inv2 % q, y * z_inv2 * z_inv % q)


@lru_cache(maxsize=4)
def _square_tables(q: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """chi[t] in {-1,0,+1} marking squares mod q, and one square root per residue.

    Built by marking y^2 for y = 1..q//2, so it needs no primality and no
    Tonelli-Shanks; for prime q, chi coincides with the Legendre symbol.
    """
    chi = [-1] * q
    chi[0] = 0
    root = [0] * q
    for y in range(1, q // 2 + 1):
        t = y * y % q
        chi[t] = 1
        root[t] = y
    return tuple(chi), tuple(root)


@lru_cache(maxsize=4)
def _cubic_terms(q: int, a: int) -> tuple[int, ...]:
    # x^3 + ax for every x; adding b later gives the full right-hand side
    return tuple((x * x * x + a * x) % q for x in range(q))


def count_points(q: int, a: int, b: int, limit: int = ENUMERATION_LIMIT) -> int:
    """#E(F_q) for prime q by summing quadratic characters of x^3 + ax + b.

    Counts affine solutions plus the point at infinity. For singular (q,a,b)
    the sum still counts the cubic's solutions, it just is not a group order.
    """
    if q > limit:
        raise ResourceLimitError(f"field size {q} exceeds enumeration limit {limit}")
    chi, _ = _square_tables(q)
    cubic = _cubic_terms(q, a)
    n_points = q + 1 + sum(chi[(t + b) % q] for t in cubic)
    if not is_singular(q, a, b):
        assert (q + 1 - n_points) ** 2 <= 4 * q, "point count outside Hasse interval"
    return n_points


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


_invalid_point_cache: dict[tuple[int, int, int, int], InvalidCurvePoint] = {}


def find_invalid_curve_point(
    e: CurveParams, g: int, limit: int = ENUMERATION_LIMIT
) -> InvalidCurvePoint:
    """Deterministic search for a point of exact prime order g on some b' curve.

    Scans b' = 1, 2, ... (skipping b' == e.b and singular coefficient pairs),
    counts the companion curve, and when g divides its order N' multiplies a
    sampled point by N'/g. Results are cached so repeated seeded attack runs
    pay the sweep once.

    Raises:
        NotFoundError: no b' in [1, q-1] gives g | N'.
        ResourceLimitError: field too large to sweep.
    """
    if e.q > limit:
        raise ResourceLimitError(f"field size {e.q} exceeds enumeration limit {limit}")
    if g < 3 or not is_probable_prime(g):
        raise ValueError(f"order must be an odd prime >= 3, got {g}")
    cache_key = (e.q, e.a, e.b, g)
    hit = _invalid_point_cache.get(cache_key)
    if hit is not None:
        return hit
    chi, root = _square_tables(e.q)
    cubic = _cubic_terms(e.q, e.a)
    for b_prime in range(1, e.q):
        if b_prime == e.b or is_singular(e.q, e.a, b_prime):
            continue
        n_prime = e.q + 1 + sum(chi[(t + b_prime) % e.q] for t in cubic)
        if n_prime % g:
            continue
        cof = n_prime // g
        for x in range(e.q):
            rhs = (cubic[x] + b_prime) % e.q
            if chi[rhs] < 0:
                continue
            w = scalar_mul(cof, Point(x, root[rhs]), e)
            if w.is_infinity:
                continue
            # g prime and w != O force the order to be exactly g
            assert scalar_mul(g, w, e).is_infinity
            found = InvalidCurvePoint(b_prime=b_prime, point=w, order=g)
            _invalid_point_cache[cache_key] = found
            return found
    raise NotFoundError(f"no companion curve over F_{e.q} has a subgroup of order {g}")


def search_prime_order_curve(
    q_min: int,
    q_max: int,
    rng: Random,
    embedding_bound: int = 20,
    limit: int = ENUMERATION_LIMIT,
    max_tries: int = 10_000,
) -> CurveParams:
    """Find a curve of prime order n = #E over a prime field in [q_min, q_max].

    The result passes the full domain-parameter checklist: prime field,
    nonsingular, prime group order, n != q, trace nonzero, n^2 > 16q, and
    n not dividing q^i - 1 for i up to embedding_bound. Deterministic for a
    given rng state.
    """
    if q_max > limit:
        raise ResourceLimitError(f"q_max {q_max} exceeds enumeration limit {limit}")
    if q_min < 5 or q_min > q_max:
        raise ValueError(f"bad field range [{q_min}, {q_max}]")
    for _ in range(max_tries):
        q = rng.randrange(q_min | 1, q_max + 1, 2)
        if not is_probable_prime(q):
            continue
        a = rng.randrange(q)
        b = rng.randrange(q)
        if is_singular(q, a, b):
            continue
        n = count_points(q, a, b, limit)
        if not is_probable_prime(n):
            continue
        if n == q or n == q + 1 or n * n <= 16 * q:
            continue
        if any(pow(q % n, i, n) == 1 for i in range(1, embedding_bound + 1)):
            continue
        chi, root = _square_tables(q)
        cubic = _cubic_terms(q, a)
        for x in range(q):
            rhs = (cubic[x] + b) % q
            if chi[rhs] == 1:
                # group order is prime, so any affine point generates it
                return CurveParams(q=q, a=a, b=b, g=Point(x, root[rhs]), n=n)
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
