"""Reference arithmetic the benchmark checks the program against.

Written apart from hlslab and sharing none of its code: affine
double-and-add with inversion by Fermat's little theorem (the program uses
Jacobian coordinates and pow(x, -1, q)), primality by trial division (the
program uses Miller-Rabin), and the SHA-256 counter keystream from hashlib.
Slow and plain on purpose; it runs only outside the timed region.
"""

from __future__ import annotations

import hashlib
from typing import Optional

Affine = Optional[tuple[int, int]]  # None is the point at infinity


def is_prime(n: int) -> bool:
    """Exact primality by trial division; meant for n below about 2^40."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def add(p: Affine, r: Affine, q: int, a: int) -> Affine:
    """Affine group law on y^2 = x^3 + ax + b over F_q (b is never read)."""
    if p is None:
        return r
    if r is None:
        return p
    (x1, y1), (x2, y2) = p, r
    if x1 == x2 and (y1 + y2) % q == 0:
        return None
    if p == r:
        lam = (3 * x1 * x1 + a) * pow(2 * y1, q - 2, q) % q
    else:
        lam = (y2 - y1) * pow(x2 - x1, q - 2, q) % q
    x3 = (lam * lam - x1 - x2) % q
    return x3, (lam * (x1 - x3) - y1) % q


def mul(k: int, p: Affine, q: int, a: int) -> Affine:
    """k*p by right-to-left affine double-and-add."""
    acc: Affine = None
    while k:
        if k & 1:
            acc = add(acc, p, q, a)
        p = add(p, p, q, a)
        k >>= 1
    return acc


def keystream_xor(key: bytes, data: bytes) -> bytes:
    """data XOR the keystream SHA-256(key || j as 8 big-endian bytes), j = 0, 1, ..."""
    stream = b"".join(
        hashlib.sha256(key + j.to_bytes(8, "big")).digest()
        for j in range((len(data) + 31) // 32)
    )[: len(data)]
    return (int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")).to_bytes(
        len(data), "big"
    )
