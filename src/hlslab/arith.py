"""Arbitrary-precision modular arithmetic.

Everything downstream (curve group law, scheme scalars, CRT key recovery)
reduces to the handful of primitives here. Values are plain Python ints.
The hex codec and the key check below are shared by every JSON loader.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterable, Sequence

from .errors import NotInvertibleError

__all__ = [
    "crt_combine",
    "hex_to_int",
    "int_to_hex",
    "is_probable_prime",
    "mod_inv",
    "require_keys",
]

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97,
)

# The witness set {2,3,5,7,11,13,17} is deterministic for inputs below this
# bound; larger inputs get 40 pseudo-random rounds (composite error <= 2^-80).
_MR_DETERMINISTIC_BOUND = 341_550_071_728_321
_MR_DETERMINISTIC_WITNESSES = (2, 3, 5, 7, 11, 13, 17)
_MR_RANDOM_ROUNDS = 40


def int_to_hex(x: int) -> str:
    """Serialize a nonnegative integer as lowercase ``0x…`` with no leading zeros."""
    if x < 0:
        raise ValueError("negative integers have no serialized form")
    return format(x, "#x")


def hex_to_int(text: str) -> int:
    """Parse an integer serialized by :func:`int_to_hex`."""
    if not isinstance(text, str) or not text.lower().startswith("0x"):
        raise ValueError(f"expected 0x-prefixed hex string, got {text!r}")
    return int(text, 16)


def require_keys(data: object, keys: Iterable[str], what: str) -> None:
    """Raise ValueError unless data is a JSON object holding every one of keys."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    missing = set(keys) - set(data)
    if missing:
        raise ValueError(f"{what} missing keys: {sorted(missing)}")


def mod_inv(a: int, m: int) -> int:
    """Inverse of ``a`` modulo ``m``.

    Raises:
        NotInvertibleError: when gcd(a, m) != 1 (includes a == 0).
    """
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NotInvertibleError(f"{a} is not invertible modulo {m}") from None


def _miller_rabin_round(x: int, witness: int, odd_part: int, two_exp: int) -> bool:
    t = pow(witness, odd_part, x)
    if t in (1, x - 1):
        return True
    for _ in range(two_exp - 1):
        t = t * t % x
        if t == x - 1:
            return True
    return False


def is_probable_prime(x: int) -> bool:
    """Miller-Rabin primality verdict, composite error probability <= 2^-80."""
    if x < 2:
        return False
    for p in _SMALL_PRIMES:
        if x == p:
            return True
        if x % p == 0:
            return False
    odd_part = x - 1
    two_exp = 0
    while odd_part % 2 == 0:
        odd_part //= 2
        two_exp += 1
    if x < _MR_DETERMINISTIC_BOUND:
        witnesses: Iterable[int] = _MR_DETERMINISTIC_WITNESSES
    else:
        rng = random.Random(x)  # deterministic per input, 40 rounds ~ 2^-80
        witnesses = (rng.randrange(2, x - 1) for _ in range(_MR_RANDOM_ROUNDS))
    return all(_miller_rabin_round(x, w, odd_part, two_exp) for w in witnesses)


def crt_combine(pairs: Iterable[Sequence[int]]) -> int:
    """Unique x in [0, prod moduli) with x = residue_i (mod modulus_i) for all i.

    Raises ValueError unless every residue lies in [0, modulus), every
    modulus is >= 2 and the moduli are pairwise coprime.
    """
    pairs = [(int(r), int(m)) for r, m in pairs]
    for residue, modulus in pairs:
        if modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {modulus}")
        if not 0 <= residue < modulus:
            raise ValueError(f"residue {residue} out of range for modulus {modulus}")
    for (_, m1), (_, m2) in itertools.combinations(pairs, 2):
        if math.gcd(m1, m2) != 1:
            raise ValueError(f"moduli {m1} and {m2} are not coprime")
    x, m = 0, 1
    for residue, modulus in pairs:
        step = (residue - x) * mod_inv(m % modulus, modulus) % modulus
        x += m * step
        m *= modulus
    return x
