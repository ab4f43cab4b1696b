"""Executable key-recovery and misbinding attacks against the vulnerable
scheme, each returning a structured AttackReport.

Covered: ephemeral-leak sender-key recovery (plus the precomputed-pair
scanning variant), forward-secrecy break via ephemeral reconstruction,
invalid-curve recovery of the recipient key through the confirmation-tag
oracle with CRT recombination, identity misbinding against a lax CA,
the r = 0 signature leak, and the degenerate-session-key audit.

Every attack is deterministic given its injected randomness, and every
success report carries the recovered secrets so callers can re-verify them
against the public keys.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field
from random import Random
from typing import Callable, Iterable, Optional, Sequence

from .arith import crt_combine, int_to_hex, is_probable_prime, mod_inv
from .curve import (
    INFINITY,
    CurveParams,
    Point,
    find_invalid_curve_point,
    point_add,
    scalar_mul,
)
from .errors import (
    InvalidEphemeralKeyError,
    KeyControlError,
    MismatchedLeakError,
    NotInvertibleError,
    PopInvalidError,
    PopRequiredError,
)
from .hls import KeyPair, SigncryptedText, bound_hash, unsigncrypt
from .pki import Certificate, CertificateAuthority, validate_certificate
from .primitives import Mode, derive_key, mac, stream_decrypt

__all__ = [
    "AttackReport",
    "PairTable",
    "forward_secrecy_break",
    "invalid_curve_attack",
    "recover_ephemeral",
    "recover_sender_key",
    "scan_with_pair_table",
    "uks_attack",
    "weak_key_audit",
    "zero_r_probe",
]

# sign-ambiguity resolution enumerates up to 2^len(g_budget) CRT combinations
MAX_G_BUDGET = 16

ConfirmOracle = Callable[[SigncryptedText, bytes], Optional[tuple[bytes, bytes]]]
Decryptor = Callable[[SigncryptedText], bytes]


@dataclass(frozen=True)
class AttackReport:
    """Outcome of one attack run.

    recovered maps secret names ("d_A", "d_B", "r") to integers; on success
    every recovered private key must re-verify against its public point.
    """

    attack_id: str
    success: bool
    recovered: dict[str, int] = field(default_factory=dict)
    oracle_queries: int = 0
    trials: int = 0
    transcript: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "recovered": {k: int_to_hex(v) for k, v in self.recovered.items()},
            "transcript": list(self.transcript),
        }


def recover_sender_key(
    r: int, sigma: SigncryptedText, pub_recipient: Point, e: CurveParams
) -> int:
    """Sender private key from a leaked ephemeral scalar: d_A = (s + h*r) mod n.

    The leak must actually correspond to the intercepted triple, i.e.
    r*G == R; anything else is a MismatchedLeakError, not a wrong answer.
    """
    if not 0 <= r < e.n:
        raise ValueError(f"leaked scalar out of range [0, {e.n - 1}]")
    if scalar_mul(r, e.g, e) != sigma.ephemeral:
        raise MismatchedLeakError("leaked scalar does not reproduce the intercepted R")
    shared = scalar_mul(r, pub_recipient, e)
    key = derive_key(shared, e, Mode.VULNERABLE)
    message = stream_decrypt(key, sigma.ciphertext)
    return (sigma.signature + bound_hash(message, sigma.ephemeral, e) * r) % e.n


@dataclass(frozen=True)
class PairTable:
    """Precomputed (x_R -> r) pairs, the attacker's stash of ephemerals.

    Models both the precomputation scenario and a biased ephemeral source:
    whoever can enumerate the scalars a sender will draw simply tabulates
    them. Keyed by x-coordinate, so a lookup may return n - r instead of r;
    match() resolves which of the two reproduces the intercepted point.
    """

    entries: dict[int, int]

    @classmethod
    def build(cls, scalars: Iterable[int], e: CurveParams) -> "PairTable":
        entries = {}
        for r in scalars:
            p = scalar_mul(r, e.g, e)
            if not p.is_infinity:
                entries[p.x] = r
        return cls(entries)

    def match(self, ephemeral: Point, e: CurveParams) -> Optional[int]:
        if ephemeral.is_infinity:
            return None
        r = self.entries.get(ephemeral.x)
        if r is None:
            return None
        if scalar_mul(r, e.g, e) == ephemeral:
            return r
        alt = (e.n - r) % e.n
        if scalar_mul(alt, e.g, e) == ephemeral:
            return alt
        return None


def scan_with_pair_table(
    table: PairTable,
    intercepted: Sequence[SigncryptedText],
    pub_recipient: Point,
    e: CurveParams,
) -> list[AttackReport]:
    """Run the leak recovery on every intercepted triple whose R is tabulated."""
    reports = []
    for idx, sigma in enumerate(intercepted):
        r = table.match(sigma.ephemeral, e)
        if r is None:
            continue
        d_a = recover_sender_key(r, sigma, pub_recipient, e)
        reports.append(
            AttackReport(
                attack_id="pair-scan",
                success=True,
                recovered={"d_A": d_a, "r": r},
                trials=1,
                transcript=(
                    f"intercepted[{idx}]: x_R matched table entry, r = {r}, d_A = {d_a}",
                ),
            )
        )
    return reports


def recover_ephemeral(d_sender: int, s: int, h: int, n: int) -> int:
    """Ephemeral scalar from a compromised sender key: r = (d_A - s) * h^-1 mod n."""
    h_inv = mod_inv(h % n, n)  # h == 0 mod n -> NotInvertibleError
    return (d_sender - s) * h_inv % n


def forward_secrecy_break(
    d_sender: int,
    sigma: SigncryptedText,
    pub_recipient: Point,
    decryptor: Decryptor,
    e: CurveParams,
) -> AttackReport:
    """Recover an old plaintext from the sender's long-term key alone.

    One decryptor interaction (the cooperating recipient) yields the message
    and hence h; then r = (d_A - s) * h^-1 mod n rebuilds the session key
    independently. Success means the independent re-decryption reproduced
    the plaintext byte for byte. A refusing decryptor raises through.
    """
    transcript = [f"querying recipient decryptor for R = {sigma.ephemeral}"]
    plaintext = decryptor(sigma)  # OracleRefusedError propagates to the caller
    transcript.append(f"decryptor returned {len(plaintext)} plaintext bytes")
    h = bound_hash(plaintext, sigma.ephemeral, e)
    try:
        r = recover_ephemeral(d_sender, sigma.signature, h, e.n)
    except NotInvertibleError as exc:
        failure = f"h is not invertible: {exc}"
    else:
        failure = None
        if scalar_mul(r, e.g, e) != sigma.ephemeral:
            failure = f"candidate r = {r} fails r*G == R; wrong sender key?"
    if failure:
        transcript.append(failure)
        return AttackReport(
            "forward-secrecy", False, oracle_queries=1, trials=1,
            transcript=tuple(transcript),
        )
    shared = scalar_mul(r, pub_recipient, e)
    key = derive_key(shared, e, Mode.VULNERABLE)
    recovered_plaintext = stream_decrypt(key, sigma.ciphertext)
    success = recovered_plaintext == plaintext
    transcript.append(
        f"recovered r = {r}; independent re-decryption "
        + ("matches the plaintext" if success else "does NOT match")
    )
    return AttackReport(
        "forward-secrecy",
        success,
        recovered={"r": r} if success else {},
        oracle_queries=1,
        trials=1,
        transcript=tuple(transcript),
    )


def invalid_curve_attack(
    e: CurveParams,
    pub_recipient: Point,
    oracle: ConfirmOracle,
    confirm_message: bytes,
    g_budget: Sequence[int],
    rng: Random,
) -> AttackReport:
    """Recover the recipient's key through the confirmation oracle.

    For each small prime g: find a point W of order g on a companion curve,
    send it as the ephemeral of a crafted triple, and replay the returned
    tag against at most floor(g/2) + 1 candidate keys derived from j*W.
    The matching j pins the recipient key to +-j mod g; the sign ambiguity
    (derive_key sees only x, identical for K and -K) is resolved at the end
    by enumerating sign combinations through the CRT and testing d*G.

    One oracle query per g, including rejected ones. Rounds the oracle
    refuses (a validating recipient) or fails to match contribute nothing;
    with no residues, or none of the CRT candidates matching, the report is
    a failure rather than an error.
    """
    if len(g_budget) > MAX_G_BUDGET:
        raise ValueError(f"g budget larger than {MAX_G_BUDGET} explodes the sign search")
    if len(set(g_budget)) != len(g_budget):
        raise ValueError("g budget must contain distinct primes")
    for g in g_budget:
        if g < 3 or g % 2 == 0 or not is_probable_prime(g):
            raise ValueError(f"g budget entries must be odd primes >= 3, got {g}")
    transcript = []
    product = math.prod(g_budget)
    if product <= e.n:
        transcript.append(
            f"warning: product of orders {product} <= n = {e.n}, recovery cannot be unique"
        )
    residues: list[tuple[int, int]] = []
    queries = 0
    mac_trials = 0
    for g in g_budget:
        icp = find_invalid_curve_point(e, g)
        w = icp.point
        transcript.append(
            f"g={g}: using point {w} of order {g} on companion curve b'={icp.b_prime}"
        )
        crafted = SigncryptedText(
            ciphertext=rng.randbytes(16),
            ephemeral=w,
            signature=rng.randrange(e.n),
        )
        queries += 1
        try:
            response = oracle(crafted, confirm_message)
        except (InvalidEphemeralKeyError, KeyControlError) as exc:
            transcript.append(f"g={g}: oracle refused the crafted point: {exc}")
            continue
        if response is None:
            transcript.append(f"g={g}: oracle returned no tag (verification failed)")
            continue
        _, tag = response
        candidate = INFINITY  # j * W, starting at j = 0
        matched_j = None
        round_trials = 0
        for j in range(g // 2 + 1):
            round_trials += 1
            key_j = derive_key(candidate, e, Mode.VULNERABLE)
            if mac(key_j, confirm_message) == tag:
                matched_j = j
                # the mirrored candidate shares the x-coordinate, hence the key:
                # the oracle pinned d_B only up to sign mod g
                if j:
                    mirrored = scalar_mul(g - j, w, e)
                    assert derive_key(mirrored, e, Mode.VULNERABLE) == key_j
                break
            candidate = point_add(candidate, w, e)
        mac_trials += round_trials
        if matched_j is None:
            transcript.append(f"g={g}: no candidate key matched in {round_trials} trials")
            continue
        residues.append((matched_j, g))
        transcript.append(
            f"g={g}: d_B == +-{matched_j} (mod {g}) after {round_trials} trials"
            f" (bound {g // 2 + 1})"
        )
    sign_options = [(j,) if j == 0 else (j, g - j) for j, g in residues]
    moduli = [g for _, g in residues]
    for combo in itertools.product(*sign_options) if residues else ():
        candidate_d = crt_combine(zip(combo, moduli))
        if not 1 <= candidate_d < e.n:
            continue
        if scalar_mul(candidate_d, e.g, e) == pub_recipient:
            transcript.append(
                f"CRT over {len(residues)} residues: d_B = {candidate_d} verified against U_B"
            )
            return AttackReport(
                "invalid-curve",
                True,
                recovered={"d_B": candidate_d},
                oracle_queries=queries,
                trials=mac_trials,
                transcript=tuple(transcript),
            )
    transcript.append(
        "no CRT sign combination matched U_B (order product too small?)"
        if residues
        else "no residues collected, recipient never leaked a usable tag"
    )
    return AttackReport(
        "invalid-curve", False, oracle_queries=queries, trials=mac_trials,
        transcript=tuple(transcript),
    )


def uks_attack(
    ca: CertificateAuthority,
    alice_cert: Certificate,
    bob: KeyPair,
    sigma: SigncryptedText,
    e: CurveParams,
    now: int,
    mode: Mode = Mode.VULNERABLE,
    expected_plaintext: Optional[bytes] = None,
) -> AttackReport:
    """Identity misbinding: register Alice's public key under Mallory's name.

    Mallory asks the CA to certify alice_cert's public key as her own (no
    private key needed when the CA demands no proof of possession), then
    presents Alice's intercepted triple alongside her certificate. The
    recipient validates the certificate, unsigncrypts successfully, and
    walks away attributing Alice's message to Mallory.
    """
    transcript = [
        f"requesting certificate binding 'Mallory' to the key of {alice_cert.subject!r}"
    ]
    try:
        mallory_cert = ca.issue("Mallory", alice_cert.public_key, now, 365 * 86400)
    except (PopRequiredError, PopInvalidError) as exc:
        transcript.append(f"blocked at issuance: {exc}")
        return AttackReport("uks", False, transcript=tuple(transcript))
    transcript.append(f"CA issued serial {mallory_cert.serial} to 'Mallory'")
    report = validate_certificate(mallory_cert, ca.pub, now, ca.crl, e)
    if not report.ok:
        transcript.append(
            f"recipient rejected the certificate: {', '.join(report.failed_names())}"
        )
        return AttackReport("uks", False, transcript=tuple(transcript))
    transcript.append("recipient accepted the certificate")
    plaintext = unsigncrypt(sigma, bob.d, mallory_cert.public_key, e, mode)
    if plaintext is None:
        transcript.append("unsigncryption rejected the triple")
        return AttackReport("uks", False, transcript=tuple(transcript))
    plaintext_ok = expected_plaintext is None or plaintext == expected_plaintext
    transcript.append(
        f"recipient attributes {len(plaintext)} plaintext bytes to"
        f" {mallory_cert.subject!r}"
        + ("" if plaintext_ok else " but the plaintext is not the sender's")
    )
    return AttackReport("uks", plaintext_ok, transcript=tuple(transcript))


def zero_r_probe(sigma: SigncryptedText, pub_sender: Point, e: CurveParams) -> AttackReport:
    """When R = O arrives on the wire, the signature scalar IS the sender key."""
    if not sigma.ephemeral.is_infinity:
        return AttackReport(
            "zero-r", False,
            transcript=("R is an affine point, the degenerate leak does not apply",),
        )
    candidate = sigma.signature
    if 1 <= candidate < e.n and scalar_mul(candidate, e.g, e) == pub_sender:
        return AttackReport(
            "zero-r",
            True,
            recovered={"d_A": candidate},
            trials=1,
            transcript=(f"R == O, s = {candidate} verified as the sender key",),
        )
    return AttackReport(
        "zero-r", False, trials=1,
        transcript=("R == O but s does not verify against the sender key",),
    )


def weak_key_audit(runs: Sequence[tuple[Point, bytes]]) -> AttackReport:
    """Flag sessions whose shared point is the identity or whose key is all zero.

    Success means the audit found at least one degenerate session; a
    hardened deployment must yield a clean (failed) audit.
    """
    flagged = []
    for idx, (shared, key) in enumerate(runs):
        if shared.is_infinity or key == bytes(len(key)):
            flagged.append(idx)
    transcript = [f"audited {len(runs)} sessions, {len(flagged)} degenerate"]
    transcript += [f"session[{i}]: shared point O or all-zero key" for i in flagged]
    return AttackReport(
        "weak-key",
        bool(flagged),
        trials=len(runs),
        transcript=tuple(transcript),
    )
