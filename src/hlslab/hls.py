"""The HLS signcryption scheme: key generation, signcryption, unsigncryption,
and the recipient's confirmation-tag oracle.

Two modes share one algorithm. The vulnerable mode is the scheme as designed,
weaknesses included; the hardened mode adds exactly four refusals: no caller
supplied ephemerals, no zero bound hash, no identity shared point, and no
unvalidated ephemeral public point. On honest inputs that pass every check,
the two modes compute byte-identical results.

Sign equation: s = (d_A - h*r) mod n with h = H(M || x_R) mod n.
Verification: s*G + h*R == U_A, equivalent to d_A == (s + h*r) mod n.
Verification failure is reported as the value None (the reject symbol), never
as an exception; exceptions are reserved for precondition refusals so callers
can tell "blocked by validation" apart from "signature did not verify".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from random import Random
from typing import Optional

from .arith import hex_to_int, int_to_hex, require_keys
from .curve import (
    INFINITY,
    CurveParams,
    Point,
    is_on_curve,
    point_add,
    point_from_obj,
    point_to_obj,
    scalar_mul,
)
from .errors import ForcedEphemeralError, InvalidEphemeralKeyError, ZeroHashError
from .primitives import (
    Mode,
    derive_key,
    hash_to_scalar,
    mac,
    stream_decrypt,
    stream_encrypt,
    x_coordinate_bytes,
)

__all__ = [
    "ConfirmPolicy",
    "KeyPair",
    "SigncryptedText",
    "bound_hash",
    "confirmation_oracle",
    "gen",
    "keypair_from_dict",
    "keypair_to_dict",
    "signcrypt",
    "signcrypted_from_dict",
    "signcrypted_to_dict",
    "unsigncrypt",
    "validate_ephemeral_point",
]


@dataclass(frozen=True)
class KeyPair:
    """Private scalar d in [1, n-1] and public point pub = d*G."""

    d: int
    pub: Point


@dataclass(frozen=True)
class SigncryptedText:
    """Wire triple: ciphertext C, ephemeral public point R, signature scalar s.

    R carries no on-curve guarantee. The vulnerable mode accepts whatever
    arrives, which is precisely the opening the invalid-curve attack uses.
    """

    ciphertext: bytes
    ephemeral: Point
    signature: int


class ConfirmPolicy(enum.Enum):
    """How the recipient hands out confirmation tags.

    CONFIRM_ALWAYS returns a tag keyed by the derived session key no matter
    what, tag-first; CONFIRM_AFTER_VERIFY only after unsigncryption accepts;
    HARDENED additionally validates the ephemeral point before touching it.
    """

    CONFIRM_ALWAYS = "confirm-always"
    CONFIRM_AFTER_VERIFY = "confirm-after-verify"
    HARDENED = "hardened"


def gen(e: CurveParams, rng: Random) -> KeyPair:
    """Fresh key pair: d uniform in [1, n-1], pub = d*G."""
    d = rng.randrange(1, e.n)
    return KeyPair(d=d, pub=scalar_mul(d, e.g, e))


def bound_hash(message: bytes, ephemeral: Point, e: CurveParams) -> int:
    """h = H(M || x_R) mod n, with x_R as a fixed-length field element."""
    return hash_to_scalar(message + x_coordinate_bytes(ephemeral, e.q), e.n)


def signcrypt(
    message: bytes,
    d_sender: int,
    pub_recipient: Point,
    e: CurveParams,
    rng: Random,
    mode: Mode = Mode.VULNERABLE,
    forced_r: Optional[int] = None,
) -> SigncryptedText:
    """Encrypt-and-sign message for the recipient.

    forced_r is a reproducibility hook standing in for a compromised or
    biased ephemeral source; it may be 0, which produces R = O and s = d_A
    on the wire. The hardened mode refuses it outright, along with a zero
    bound hash and an identity shared point.
    """
    if not 1 <= d_sender < e.n:
        raise ValueError(f"sender key must lie in [1, {e.n - 1}]")
    if forced_r is not None:
        if mode is Mode.HARDENED:
            raise ForcedEphemeralError("hardened mode draws its own ephemerals")
        if not 0 <= forced_r < e.n:
            raise ValueError(f"forced ephemeral must lie in [0, {e.n - 1}]")
        r = forced_r
    else:
        r = rng.randrange(1, e.n)
    ephemeral = scalar_mul(r, e.g, e)
    shared = scalar_mul(r, pub_recipient, e)
    key = derive_key(shared, e, mode)
    ciphertext = stream_encrypt(key, message)
    h = bound_hash(message, ephemeral, e)
    if h == 0 and mode is Mode.HARDENED:
        raise ZeroHashError("bound hash is 0 mod n, signature would expose the sender key")
    s = (d_sender - h * r) % e.n
    return SigncryptedText(ciphertext=ciphertext, ephemeral=ephemeral, signature=s)


def validate_ephemeral_point(ephemeral: Point, e: CurveParams) -> None:
    """Hardened-mode gate on an incoming R: nonidentity, on-curve, right order.

    Raises InvalidEphemeralKeyError so callers can distinguish this refusal
    from a failed signature verification.
    """
    if ephemeral.is_infinity:
        raise InvalidEphemeralKeyError("ephemeral point is the identity")
    if not (0 <= ephemeral.x < e.q and 0 <= ephemeral.y < e.q):
        raise InvalidEphemeralKeyError("ephemeral coordinates out of field range")
    if not is_on_curve(ephemeral, e):
        raise InvalidEphemeralKeyError("ephemeral point does not satisfy the curve equation")
    if not scalar_mul(e.n, ephemeral, e).is_infinity:
        raise InvalidEphemeralKeyError("ephemeral point is not in the order-n subgroup")


def _unsigncrypt(
    sigma: SigncryptedText, d_recipient: int, pub_sender: Point, e: CurveParams, mode: Mode
) -> tuple[Optional[bytes], bytes]:
    # unsigncrypt's body, also handing back the session key it derived
    if not 1 <= d_recipient < e.n:
        raise ValueError(f"recipient key must lie in [1, {e.n - 1}]")
    if mode is Mode.HARDENED:
        validate_ephemeral_point(sigma.ephemeral, e)
    shared = scalar_mul(d_recipient, sigma.ephemeral, e)
    key = derive_key(shared, e, mode)
    message = stream_decrypt(key, sigma.ciphertext)
    h = bound_hash(message, sigma.ephemeral, e)
    check = point_add(
        scalar_mul(sigma.signature, e.g, e),
        scalar_mul(h, sigma.ephemeral, e),
        e,
    )
    return (message if check == pub_sender else None), key


def unsigncrypt(
    sigma: SigncryptedText,
    d_recipient: int,
    pub_sender: Point,
    e: CurveParams,
    mode: Mode = Mode.VULNERABLE,
) -> Optional[bytes]:
    """Decrypt-and-verify; returns the message, or None when verification fails.

    The hardened mode validates R before deriving anything from it. The
    vulnerable mode computes d_B * R for whatever R arrived, on-curve or not.
    """
    return _unsigncrypt(sigma, d_recipient, pub_sender, e, mode)[0]


def confirmation_oracle(
    sigma: SigncryptedText,
    d_recipient: int,
    pub_sender: Point,
    e: CurveParams,
    confirm_message: bytes,
    policy: ConfirmPolicy,
) -> Optional[tuple[bytes, bytes]]:
    """Recipient-side confirmation: (confirm_message, MAC tag under the session key).

    CONFIRM_ALWAYS derives the key from the received R and answers without
    verifying anything, which hands an attacker a test oracle for the derived
    key. CONFIRM_AFTER_VERIFY answers only when unsigncryption accepts,
    returning None otherwise. HARDENED validates R (raising on refusal) and
    then behaves like CONFIRM_AFTER_VERIFY in hardened mode. Either way the
    tag is keyed by the session key unsigncryption derived.
    """
    if policy is ConfirmPolicy.CONFIRM_ALWAYS:
        shared = scalar_mul(d_recipient, sigma.ephemeral, e)
        key = derive_key(shared, e, Mode.VULNERABLE)
        return confirm_message, mac(key, confirm_message)
    # under HARDENED, unsigncrypt validates R before any use of d_B
    mode = Mode.VULNERABLE if policy is ConfirmPolicy.CONFIRM_AFTER_VERIFY else Mode.HARDENED
    message, key = _unsigncrypt(sigma, d_recipient, pub_sender, e, mode)
    if message is None:
        return None
    return confirm_message, mac(key, confirm_message)


def keypair_to_dict(kp: KeyPair) -> dict:
    if kp.pub.is_infinity:
        raise ValueError("cannot serialize a key pair with an identity public point")
    return {"d": int_to_hex(kp.d), "ux": int_to_hex(kp.pub.x), "uy": int_to_hex(kp.pub.y)}


def keypair_from_dict(data: dict) -> KeyPair:
    require_keys(data, ("d", "ux", "uy"), "key pair file")
    return KeyPair(
        d=hex_to_int(data["d"]),
        pub=Point(hex_to_int(data["ux"]), hex_to_int(data["uy"])),
    )


def signcrypted_to_dict(sigma: SigncryptedText) -> dict:
    return {
        "C": sigma.ciphertext.hex(),
        "R": point_to_obj(sigma.ephemeral),
        "s": int_to_hex(sigma.signature),
    }


def signcrypted_from_dict(data: dict) -> SigncryptedText:
    require_keys(data, ("C", "R", "s"), "signcrypted file")
    if not isinstance(data["C"], str):
        raise ValueError(f"signcrypted file: C must be a hex string, got {data['C']!r}")
    return SigncryptedText(
        ciphertext=bytes.fromhex(data["C"]),
        ephemeral=point_from_obj(data["R"]),
        signature=hex_to_int(data["s"]),
    )
