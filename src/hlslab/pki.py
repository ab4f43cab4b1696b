"""Toy certificate authority plus the three validation checklists:
certificate validation, public-key validation, and domain-parameter
validation. Every checklist returns a structured report rather than raising,
so flawed inputs can be examined check by check; the same checklists are
togglable off at the CA to reproduce the no-validation world.

The CA signs certificate bodies with a Schnorr-style signature over the same
curve the lab already uses: commitment V = k*G, challenge
e = H(V || body) mod n, response z = (k - e*d) mod n, verified by recomputing
the challenge from z*G + e*U.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from random import Random
from typing import Iterable, Optional

from .arith import hex_to_int, int_to_hex, is_probable_prime, require_keys
from .curve import (
    ENUMERATION_LIMIT,
    CurveParams,
    Point,
    count_points,
    is_on_curve,
    is_singular,
    point_add,
    point_from_obj,
    point_to_obj,
    scalar_mul,
)
from .errors import (
    HlsLabError,
    PopInvalidError,
    PopRequiredError,
    PublicKeyInvalidError,
)
from .hls import KeyPair
from .primitives import field_len, hash_bytes, hash_to_scalar, int_to_bytes

__all__ = [
    "CAPolicy",
    "Certificate",
    "CertificateAuthority",
    "CheckResult",
    "SchnorrSig",
    "ValidationReport",
    "certificate_body",
    "cert_from_dict",
    "cert_to_dict",
    "make_pop",
    "pop_challenge",
    "schnorr_sign",
    "schnorr_verify",
    "validate_certificate",
    "validate_domain_params",
    "validate_public_key",
    "verify_pop",
]


@dataclass(frozen=True)
class SchnorrSig:
    e: int
    z: int


def _point_bytes(p: Point, q: int) -> bytes:
    # fixed-length x || y; the identity encodes as all zeros
    length = field_len(q)
    if p.is_infinity:
        return bytes(2 * length)
    return int_to_bytes(p.x, length) + int_to_bytes(p.y, length)


def schnorr_sign(body: bytes, d: int, e: CurveParams, rng: Random) -> SchnorrSig:
    k = rng.randrange(1, e.n)
    commitment = scalar_mul(k, e.g, e)
    challenge = hash_to_scalar(_point_bytes(commitment, e.q) + body, e.n)
    z = (k - challenge * d) % e.n
    return SchnorrSig(e=challenge, z=z)


def schnorr_verify(body: bytes, sig: SchnorrSig, pub: Point, e: CurveParams) -> bool:
    if not (0 <= sig.e < e.n and 0 <= sig.z < e.n):
        return False
    commitment = point_add(scalar_mul(sig.z, e.g, e), scalar_mul(sig.e, pub, e), e)
    return sig.e == hash_to_scalar(_point_bytes(commitment, e.q) + body, e.n)


@dataclass(frozen=True)
class Certificate:
    """Binding of a subject name to a public key over a validity window."""

    serial: int
    subject: str
    public_key: Point
    not_before: int
    not_after: int
    signature: SchnorrSig

    def __post_init__(self) -> None:
        if self.not_before > self.not_after:
            raise ValueError("certificate validity window is inverted")
        if self.serial < 0:
            raise ValueError("serial must be nonnegative")


def certificate_body(
    serial: int, subject: str, public_key: Point, not_before: int, not_after: int
) -> bytes:
    """Canonical signed body: key-sorted JSON with hex integers."""
    payload = {
        "notAfter": int_to_hex(not_after),
        "notBefore": int_to_hex(not_before),
        "publicKey": point_to_obj(public_key),
        "serial": int_to_hex(serial),
        "subject": subject,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def pop_challenge(ca_pub: Point, subject: str, public_key: Point, e: CurveParams) -> bytes:
    """Challenge a requester must sign to prove possession of the private key."""
    subject_bytes = subject.encode()
    return hash_bytes(
        b"pop-challenge-v1"
        + _point_bytes(ca_pub, e.q)
        + len(subject_bytes).to_bytes(4, "big")
        + subject_bytes
        + _point_bytes(public_key, e.q)
    )


def make_pop(
    subject: str, requester: KeyPair, ca_pub: Point, e: CurveParams, rng: Random
) -> SchnorrSig:
    return schnorr_sign(pop_challenge(ca_pub, subject, requester.pub, e), requester.d, e, rng)


def verify_pop(
    subject: str, public_key: Point, ca_pub: Point, pop: SchnorrSig, e: CurveParams
) -> bool:
    return schnorr_verify(pop_challenge(ca_pub, subject, public_key, e), pop, public_key, e)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    extended: bool = False  # beyond the documented checklist


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed_names(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {"ok": self.ok, "checks": [asdict(c) for c in self.checks]}


@dataclass(frozen=True)
class CAPolicy:
    """Both flags default to the flawed behavior: no proof of possession,
    no public-key validation. Turning them on is the remediation."""

    require_pop: bool = False
    require_pk_validation: bool = False


@dataclass
class CertificateAuthority:
    """In-memory CA: issues, revokes, tracks serials. Not thread-safe;
    issuance and revocation mutate the serial counter and the CRL."""

    keypair: KeyPair
    curve: CurveParams
    policy: CAPolicy = field(default_factory=CAPolicy)
    rng: Random = field(default_factory=lambda: Random(0))
    next_serial: int = 1
    crl: set[int] = field(default_factory=set)

    @property
    def pub(self) -> Point:
        return self.keypair.pub

    def issue(
        self,
        subject: str,
        public_key: Point,
        now: int,
        lifetime: int,
        pop: Optional[SchnorrSig] = None,
    ) -> Certificate:
        """Issue a certificate, enforcing only what the policy demands.

        With both policy flags off this will happily certify an off-curve
        point, or bind Mallory's name to Alice's public key.
        """
        if self.policy.require_pop:
            if pop is None:
                raise PopRequiredError(f"policy demands proof of possession for {subject!r}")
            if not verify_pop(subject, public_key, self.pub, pop, self.curve):
                raise PopInvalidError(f"proof of possession for {subject!r} does not verify")
        if self.policy.require_pk_validation:
            report = validate_public_key(public_key, self.curve)
            if not report.ok:
                raise PublicKeyInvalidError(
                    f"public key failed checks: {', '.join(report.failed_names())}"
                )
        serial = self.next_serial
        self.next_serial += 1
        body = certificate_body(serial, subject, public_key, now, now + lifetime)
        sig = schnorr_sign(body, self.keypair.d, self.curve, self.rng)
        return Certificate(
            serial=serial,
            subject=subject,
            public_key=public_key,
            not_before=now,
            not_after=now + lifetime,
            signature=sig,
        )

    def revoke(self, serial: int) -> None:
        self.crl.add(serial)


def validate_certificate(
    cert: Certificate,
    ca_pub: Point,
    now: int,
    crl: Iterable[int],
    e: CurveParams,
) -> ValidationReport:
    """The recipient-side certificate checklist: signature, expiry, revocation."""
    body = certificate_body(
        cert.serial, cert.subject, cert.public_key, cert.not_before, cert.not_after
    )
    sig_ok = schnorr_verify(body, cert.signature, ca_pub, e)
    fresh = cert.not_before <= now <= cert.not_after
    revoked = cert.serial in set(crl)
    return ValidationReport(
        (
            CheckResult(
                "signature",
                sig_ok,
                "CA signature verifies over the canonical body"
                if sig_ok
                else "CA signature does not verify",
            ),
            CheckResult(
                "expiry",
                fresh,
                f"now={now} within [{cert.not_before}, {cert.not_after}]"
                if fresh
                else f"now={now} outside [{cert.not_before}, {cert.not_after}]",
            ),
            CheckResult(
                "revocation",
                not revoked,
                f"serial {cert.serial} revoked" if revoked else f"serial {cert.serial} not revoked",
            ),
        )
    )


def validate_public_key(u: Point, e: CurveParams, full: bool = False) -> ValidationReport:
    """Public-key checklist: nonidentity, coordinate range, curve membership.

    With full=True a subgroup-order check (n*U == O) is appended; it is
    marked extended because it goes beyond the three documented conditions.
    """
    checks = []
    nonzero = not u.is_infinity
    checks.append(
        CheckResult(
            "nonzero",
            nonzero,
            "key is an affine point" if nonzero else "key is the identity point",
        )
    )
    if u.is_infinity:
        in_range = True
        range_detail = "identity point carries no coordinates"
    else:
        in_range = 0 <= u.x < e.q and 0 <= u.y < e.q
        range_detail = (
            "coordinates are reduced field elements"
            if in_range
            else f"coordinates not in [0, {e.q - 1}]"
        )
    checks.append(CheckResult("coordinate-range", in_range, range_detail))
    on_curve = in_range and is_on_curve(u, e)
    checks.append(
        CheckResult(
            "on-curve",
            on_curve,
            "point satisfies y^2 = x^3 + ax + b"
            if on_curve
            else "point does not satisfy the curve equation",
        )
    )
    if full:
        try:
            order_ok = scalar_mul(e.n, u, e).is_infinity
            detail = "n * U == O" if order_ok else "n * U != O (wrong subgroup)"
        except HlsLabError as exc:
            order_ok = False
            detail = f"order computation failed: {exc}"
        checks.append(CheckResult("subgroup-order", order_ok, detail, extended=True))
    return ValidationReport(tuple(checks))


def _check(name: str, fn, extended: bool = False) -> CheckResult:
    # domain checks on hostile inputs can blow up mid-computation; a crash is a fail
    try:
        passed, detail = fn()
    except (HlsLabError, ValueError, AssertionError) as exc:
        return CheckResult(name, False, f"computation failed: {exc}", extended)
    return CheckResult(name, passed, detail, extended)


def validate_domain_params(e: CurveParams, embedding_bound: int = 20) -> ValidationReport:
    """Domain-parameter checklist.

    In order: prime field; nonsingular (extended); base point on curve;
    prime subgroup order; n*G == O; n^2 > 16q (exact integer form of
    n > 4*sqrt(q)); n does not divide q^i - 1 for i up to embedding_bound;
    n != q; nonzero trace. The trace comes from enumeration when q is small
    enough, otherwise from the claimed order q + 1 - cofactor*n; the detail
    string says which route was taken.
    """

    def field_prime():
        ok = is_probable_prime(e.q)
        return ok, f"q = {e.q} is prime" if ok else f"q = {e.q} is not prime"

    def nonsingular():
        ok = not is_singular(e.q, e.a, e.b)
        return ok, (
            "4a^3 + 27b^2 != 0 mod q" if ok else "4a^3 + 27b^2 == 0 mod q (singular)"
        )

    def base_on_curve():
        ok = is_on_curve(e.g, e)
        return ok, (
            "base point satisfies the curve equation"
            if ok
            else "base point does not satisfy the curve equation"
        )

    def order_prime():
        ok = is_probable_prime(e.n)
        return ok, f"n = {e.n} is prime" if ok else f"n = {e.n} is not prime"

    def base_order():
        ok = scalar_mul(e.n, e.g, e).is_infinity
        return ok, "n * G == O" if ok else "n * G != O"

    def hasse_margin():
        ok = e.n * e.n > 16 * e.q
        return ok, (
            f"n^2 = {e.n * e.n} > 16q = {16 * e.q}"
            if ok
            else f"n^2 = {e.n * e.n} <= 16q = {16 * e.q}"
        )

    def embedding():
        if e.n < 2:
            return False, "n < 2 divides every q^i - 1"
        for i in range(1, embedding_bound + 1):
            if pow(e.q % e.n, i, e.n) == 1:
                return False, f"n divides q^{i} - 1 (embedding degree {i} <= {embedding_bound})"
        return True, f"n does not divide q^i - 1 for i = 1..{embedding_bound}"

    def anomalous():
        ok = e.n != e.q
        return ok, "n != q" if ok else "n == q (anomalous curve)"

    def supersingular():
        if e.q <= ENUMERATION_LIMIT:
            trace = e.q + 1 - count_points(e.q, e.a, e.b)
            route = "enumerated point count"
        else:
            trace = e.q + 1 - e.cofactor * e.n
            route = "claimed order cofactor * n"
        ok = trace != 0
        return ok, f"trace {trace} ({route})" + ("" if ok else " is zero (supersingular)")

    return ValidationReport(
        (
            _check("field-prime", field_prime),
            _check("nonsingular", nonsingular, extended=True),
            _check("base-point-on-curve", base_on_curve),
            _check("order-prime", order_prime),
            _check("base-point-order", base_order),
            _check("hasse-margin", hasse_margin),
            _check("embedding-degree", embedding),
            _check("anomalous", anomalous),
            _check("supersingular", supersingular),
        )
    )


def sig_to_dict(sig: SchnorrSig) -> dict:
    return {"e": int_to_hex(sig.e), "z": int_to_hex(sig.z)}


def sig_from_dict(data: dict) -> SchnorrSig:
    require_keys(data, ("e", "z"), "signature")
    return SchnorrSig(e=hex_to_int(data["e"]), z=hex_to_int(data["z"]))


def cert_to_dict(cert: Certificate) -> dict:
    return {
        "serial": int_to_hex(cert.serial),
        "subject": cert.subject,
        "publicKey": point_to_obj(cert.public_key),
        "notBefore": int_to_hex(cert.not_before),
        "notAfter": int_to_hex(cert.not_after),
        "sig": sig_to_dict(cert.signature),
    }


def cert_from_dict(data: dict) -> Certificate:
    keys = ("serial", "subject", "publicKey", "notBefore", "notAfter", "sig")
    require_keys(data, keys, "certificate file")
    return Certificate(
        serial=hex_to_int(data["serial"]),
        subject=data["subject"],
        public_key=point_from_obj(data["publicKey"]),
        not_before=hex_to_int(data["notBefore"]),
        not_after=hex_to_int(data["notAfter"]),
        signature=sig_from_dict(data["sig"]),
    )
