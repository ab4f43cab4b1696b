"""Byte-level symmetric machinery: hash, hash-to-scalar, keystream cipher,
MAC, and session-key derivation from a curve point.

The hash is SHA-256, the cipher XORs a counter-mode keystream of SHA-256
blocks, and the MAC is HMAC-SHA256. None of this is meant to be strong; it
exists so the signcryption flows and the confirmation-tag attack run with
bit-exact, dependency-free reproducibility.
"""

from __future__ import annotations

import enum
import hashlib
import hmac as _hmac

from .curve import CurveParams, Point
from .errors import KeyControlError

__all__ = [
    "Mode",
    "derive_key",
    "field_len",
    "hash_bytes",
    "hash_to_scalar",
    "int_to_bytes",
    "mac",
    "stream_decrypt",
    "stream_encrypt",
    "x_coordinate_bytes",
]


class Mode(enum.Enum):
    """Faithful-to-the-flaws scheme versus the remediated variant."""

    VULNERABLE = "vulnerable"
    HARDENED = "hardened"


def hash_bytes(data: bytes) -> bytes:
    """SHA-256 digest, always 32 bytes."""
    return hashlib.sha256(data).digest()


def field_len(q: int) -> int:
    """Bytes needed for a field element: ceil(bitlen(q) / 8)."""
    return (q.bit_length() + 7) // 8


def int_to_bytes(x: int, length: int) -> bytes:
    """Big-endian, left-zero-padded to exactly length bytes."""
    if x < 0:
        raise ValueError(f"cannot encode negative integer {x}")
    try:
        return x.to_bytes(length, "big")
    except OverflowError:
        raise ValueError(f"{x} does not fit in {length} bytes") from None


def hash_to_scalar(data: bytes, n: int) -> int:
    """Digest of data read as a big-endian integer, reduced mod n."""
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    return int.from_bytes(hash_bytes(data), "big") % n


def _keystream(key: bytes, length: int) -> bytes:
    """First length bytes of blocks 0, 1, ...; block j = SHA-256(key || j, 8 bytes big-endian)."""
    n_blocks = (length + 31) // 32
    blocks = [hashlib.sha256(key + j.to_bytes(8, "big")).digest() for j in range(n_blocks)]
    return b"".join(blocks)[:length]


def stream_encrypt(key: bytes, message: bytes) -> bytes:
    """XOR with _keystream as one big-endian integer XOR; involutory, length-preserving."""
    stream = int.from_bytes(_keystream(key, len(message)), "big")
    return (int.from_bytes(message, "big") ^ stream).to_bytes(len(message), "big")


def stream_decrypt(key: bytes, ciphertext: bytes) -> bytes:
    return stream_encrypt(key, ciphertext)


def mac(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA256 tag (block size 64, pads 0x36/0x5c per the standard)."""
    return _hmac.new(key, message, hashlib.sha256).digest()


def x_coordinate_bytes(p: Point, q: int) -> bytes:
    """Fixed-length big-endian x-coordinate; infinity encodes as all zeros.

    The zero encoding for infinity is what lets the degenerate r = 0 flow
    (R = O on the wire) execute end to end instead of crashing.
    """
    if p.is_infinity:
        return bytes(field_len(q))
    return int_to_bytes(p.x, field_len(q))


def derive_key(k_point: Point, e: CurveParams, mode: Mode) -> bytes:
    """Session key from the shared point: its x-coordinate as field bytes.

    The vulnerable mode maps the point at infinity to the all-zero key,
    faithfully reproducing the missing K != O check; the hardened mode
    refuses instead.
    """
    if k_point.is_infinity and mode is Mode.HARDENED:
        raise KeyControlError("shared point is the identity, refusing to derive a key")
    return x_coordinate_bytes(k_point, e.q)
