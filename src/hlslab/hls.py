"""The HLS signcryption scheme: key generation, signcryption, unsigncryption,
and the recipient's confirmation-tag oracle.

Two modes share one algorithm. The vulnerable mode is the scheme as designed,
weaknesses included; the hardened mode adds exactly five refusals: no caller
supplied ephemerals, no zero bound hash, no identity shared point, and no
recipient public key or ephemeral point that fails public_key_checks, which
pki's public-key report and CA read too. On honest inputs that pass every
check, the two modes compute byte-identical results.

Sign equation: s = (d_A - h*r) mod n with h = H(M || x_R) mod n.
Verification: s*G + h*R == U_A, equivalent to d_A == (s + h*r) mod n.
Verification failure is reported as the value None (the reject symbol), never
as an exception; exceptions are reserved for precondition refusals so callers
can tell "blocked by validation" apart from "signature did not verify".

The verdict of s*G + h*R == U_A is kept for the 64 (s, h, R, U_A, curve)
checked last, so confirming a triple after unsigncrypting it runs no second
sum. It holds no key: s and R come from the wire, U_A is public, and for an
accepted triple h*R = U_A - s*G fixes h. d_B*R is derived on every call.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from random import Random
from typing import Iterator, Optional

from .arith import hex_to_int, int_to_hex, require_keys
from .curve import (
    INFINITY,
    CurveParams,
    Point,
    is_on_curve,
    point_from_obj,
    point_to_obj,
    scalar_mul,
    scalar_mul_sum,
)
from .errors import (
    ForcedEphemeralError,
    HardenedRefusalError,
    HlsLabError,
    InvalidEphemeralKeyError,
    NotInvertibleError,
    PublicKeyInvalidError,
    ZeroHashError,
)
from .primitives import (
    Mode,
    derive_key,
    field_len,
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
    "public_key_checks",
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
    bound hash and an identity shared point, and it refuses a recipient key
    that fails public_key_checks with PublicKeyInvalidError.
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
    if mode is Mode.HARDENED:
        # r * U_B for a U_B outside the order-n group leaks r mod its order
        _require_subgroup_point(pub_recipient, e, PublicKeyInvalidError, "recipient key")
    ephemeral = scalar_mul(r, e.g, e)
    shared = scalar_mul(r, pub_recipient, e)
    key = derive_key(shared, e, mode)
    ciphertext = stream_encrypt(key, message)
    h = bound_hash(message, ephemeral, e)
    if h == 0 and mode is Mode.HARDENED:
        raise ZeroHashError("bound hash is 0 mod n, signature would expose the sender key")
    s = (d_sender - h * r) % e.n
    return SigncryptedText(ciphertext=ciphertext, ephemeral=ephemeral, signature=s)


def public_key_checks(p: Point, e: CurveParams) -> Iterator[tuple[str, Optional[str]]]:
    """The conditions on a public point (Antipa et al., PKC 2003), in order,
    as (check name, failure text or None). Each check assumes the ones
    before it passed, so readers stop at the first failure; an n * p that
    cannot be computed (a composite q) fails subgroup-order.
    """
    yield "nonzero", "point is the identity" if p.is_infinity else None
    in_range = 0 <= p.x < e.q and 0 <= p.y < e.q
    yield "coordinate-range", None if in_range else "coordinates out of field range"
    yield "on-curve", None if is_on_curve(p, e) else "point does not satisfy the curve equation"
    try:
        in_subgroup = scalar_mul(e.n, p, e).is_infinity
    except HlsLabError as exc:
        yield "subgroup-order", f"order computation failed: {exc}"
    else:
        yield "subgroup-order", None if in_subgroup else "point is not in the order-n subgroup"


def _require_subgroup_point(
    p: Point, e: CurveParams, error: type[HardenedRefusalError], noun: str
) -> None:
    for _, failure in public_key_checks(p, e):
        if failure is not None:
            raise error(f"{noun} {failure}")


def validate_ephemeral_point(ephemeral: Point, e: CurveParams) -> None:
    """Hardened-mode gate on an incoming R: nonidentity, on-curve, right order.

    Raises InvalidEphemeralKeyError so callers can distinguish this refusal
    from a failed signature verification.
    """
    _require_subgroup_point(ephemeral, e, InvalidEphemeralKeyError, "ephemeral")


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
    if not sigma.ephemeral.is_infinity and sigma.ephemeral.x >= 256 ** field_len(e.q):
        return None, key  # x_R has no field encoding, so no h binds it
    h = bound_hash(message, sigma.ephemeral, e)
    try:
        verified = _hls_verdict(sigma.signature, h, sigma.ephemeral, pub_sender, e)
    except NotInvertibleError:
        return None, key  # s*G and an off-curve h*R share x: their sum is undefined
    return (message if verified else None), key


@lru_cache(maxsize=64)
def _hls_verdict(
    signature: int, h: int, ephemeral: Point, pub_sender: Point, e: CurveParams
) -> bool:
    # s * G + h * R == U_A once per (s, h, R, U_A, curve) among the 64 checked
    # last; no argument is a key, and d_B * R is still computed on every call
    return scalar_mul_sum(signature, h, ephemeral, e) == pub_sender


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
    The verdict of s * G + h * R == U_A is kept for the 64 (s, h, R, U_A,
    curve) checked last; none of them is a key, and d_B * R is recomputed.
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
    tag is keyed by the session key unsigncryption derived, and the verdict
    unsigncrypt kept for the triple is reused; d_B * R is recomputed.
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
