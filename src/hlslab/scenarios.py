"""End-to-end attack scenarios: honest parties are set up, traffic is
generated, and the corresponding attack is run, all from one seeded
randomness source so every run is reproducible.

Each runner takes (curve, mode, rng) and returns an AttackReport. In
vulnerable mode the attacks are expected to succeed; in hardened mode the
victims refuse the weakness-enabling interaction (injected ephemerals,
unvalidated points, cooperative decryption, possession-free certification)
and the runner reports the attack as blocked.
"""

from __future__ import annotations

from dataclasses import replace
from random import Random
from typing import Callable, Optional, Sequence

from .arith import is_probable_prime
from .attacks import (
    AttackReport,
    PairTable,
    forward_secrecy_break,
    invalid_curve_attack,
    recover_sender_key,
    scan_with_pair_table,
    uks_attack,
    weak_key_audit,
    zero_r_probe,
)
from .curve import CurveParams, Point, find_invalid_curve_point, scalar_mul
from .errors import (
    ForcedEphemeralError,
    KeyControlError,
    NotFoundError,
    OracleRefusedError,
    ZeroHashError,
)
from .hls import (
    ConfirmPolicy,
    KeyPair,
    SigncryptedText,
    bound_hash,
    confirmation_oracle,
    gen,
    signcrypt,
    unsigncrypt,
)
from .pki import CAPolicy, CertificateAuthority, make_pop
from .primitives import Mode, derive_key

__all__ = [
    "FIXED_NOW",
    "SCENARIOS",
    "default_g_budget",
    "make_decryptor",
    "run_ephemeral_leak",
    "run_forward_secrecy",
    "run_invalid_curve",
    "run_pair_scan",
    "run_uks",
    "run_weak_key",
    "run_zero_r",
]

# all scenario timestamps are relative to this instant, keeping certificate
# validity windows reproducible across runs and machines
FIXED_NOW = 1_700_000_000


def _blocked(attack_id: str, reason: str) -> AttackReport:
    return AttackReport(attack_id, False, transcript=(f"blocked: {reason}",))


def _message(rng: Random) -> bytes:
    return rng.randbytes(rng.randrange(8, 48))


def _honest_signcrypt(
    message: bytes,
    sender: KeyPair,
    pub_recipient: Point,
    e: CurveParams,
    rng: Random,
    mode: Mode,
) -> SigncryptedText:
    # hardened mode refuses a zero bound hash; a real sender just tries again
    # with a fresh ephemeral (1/n chance per draw on toy curves)
    for _ in range(100):
        try:
            return signcrypt(message, sender.d, pub_recipient, e, rng, mode)
        except ZeroHashError:
            continue
    raise RuntimeError("zero bound hash on 100 consecutive draws, broken rng?")


def run_ephemeral_leak(e: CurveParams, mode: Mode, rng: Random) -> AttackReport:
    """A sender whose ephemeral scalar leaks loses the long-term key."""
    alice = gen(e, rng)
    bob = gen(e, rng)
    message = _message(rng)
    leaked_r = rng.randrange(1, e.n)
    try:
        sigma = signcrypt(message, alice.d, bob.pub, e, rng, mode, forced_r=leaked_r)
    except ForcedEphemeralError as exc:
        return _blocked("ephemeral-leak", f"victim refused the injected ephemeral ({exc})")
    d_a = recover_sender_key(leaked_r, sigma, bob.pub, e)
    success = d_a == alice.d and scalar_mul(d_a, e.g, e) == alice.pub
    return AttackReport(
        "ephemeral-leak",
        success,
        recovered={"d_A": d_a, "r": leaked_r},
        trials=1,
        transcript=(
            f"leaked r = {leaked_r} for intercepted triple",
            f"d_A = (s + h*r) mod n = {d_a}"
            + (" verified against U_A" if success else " FAILED verification"),
        ),
    )


def run_pair_scan(e: CurveParams, mode: Mode, rng: Random) -> AttackReport:
    """Precomputed-pair scan against senders with an enumerable ephemeral source.

    Vulnerable deployments draw ephemerals from a small biased pool the
    attacker has tabulated; two senders even share a scalar, so one table
    entry breaks both. Hardened deployments draw fresh uniform ephemerals,
    leaving the attacker with an empty table and nothing to match. Each of
    the two senders sends three triples. The pool holds four scalars below
    min(n, 2^62): rng.sample cannot take a range longer than a machine word.
    """
    senders = [gen(e, rng), gen(e, rng)]
    bob = gen(e, rng)
    pool = rng.sample(range(1, min(e.n, 1 << 62)), k=min(4, e.n - 1))
    traffic = []
    if mode is Mode.VULNERABLE:
        table = PairTable.build(pool, e)
        shared_r = pool[0]  # both senders reuse this one
        for sender in senders:
            sigma = signcrypt(
                _message(rng), sender.d, bob.pub, e, rng, mode, forced_r=shared_r
            )
            traffic.append(sigma)
        for _ in range(2):
            for sender in senders:
                r = rng.choice(pool)
                sigma = signcrypt(_message(rng), sender.d, bob.pub, e, rng, mode, forced_r=r)
                traffic.append(sigma)
    else:
        table = PairTable({})
        for _ in range(3):
            for sender in senders:
                traffic.append(
                    _honest_signcrypt(_message(rng), sender, bob.pub, e, rng, mode)
                )
    reports = scan_with_pair_table(table, traffic, bob.pub, e)
    if not reports:
        return AttackReport(
            "pair-scan",
            False,
            trials=len(traffic),
            transcript=(
                f"scanned {len(traffic)} intercepted triples, zero table matches",
            ),
        )
    recovered = {}
    verified = 0
    transcript = [f"scanned {len(traffic)} triples, {len(reports)} matched the table"]
    matched_keys = set()
    for report in reports:
        d_a = report.recovered["d_A"]
        hit = next(
            (kp for kp in senders if kp.d == d_a and scalar_mul(d_a, e.g, e) == kp.pub),
            None,
        )
        if hit is not None:
            verified += 1
            matched_keys.add(d_a)
    for idx, d_a in enumerate(sorted(matched_keys)):
        recovered[f"d_A#{idx}"] = d_a
    both = all(kp.d in matched_keys for kp in senders)
    transcript.append(
        f"{verified}/{len(reports)} recoveries verified,"
        f" {len(matched_keys)}/{len(senders)} sender keys exposed"
    )
    return AttackReport(
        "pair-scan",
        verified == len(reports) and both,
        recovered=recovered,
        trials=len(traffic),
        transcript=tuple(transcript),
    )


def make_decryptor(
    bob: KeyPair, pub_sender: Point, e: CurveParams, mode: Mode
) -> Callable[[SigncryptedText], bytes]:
    """The recipient as a decryption helper.

    The vulnerable-mode recipient happily returns the plaintext of a valid
    old triple when asked; the hardened-mode recipient refuses outright.
    """

    def decryptor(sigma: SigncryptedText) -> bytes:
        if mode is Mode.HARDENED:
            raise OracleRefusedError("recipient does not decrypt archived traffic on request")
        message = unsigncrypt(sigma, bob.d, pub_sender, e, Mode.VULNERABLE)
        if message is None:
            raise OracleRefusedError("recipient could not verify the triple")
        return message

    return decryptor


def run_forward_secrecy(e: CurveParams, mode: Mode, rng: Random) -> AttackReport:
    """Compromise of the sender's long-term key exposes archived plaintext."""
    alice = gen(e, rng)
    bob = gen(e, rng)
    decryptor = make_decryptor(bob, alice.pub, e, mode)
    last = None
    for _ in range(5):
        message = _message(rng)
        sigma = _honest_signcrypt(message, alice, bob.pub, e, rng, mode)
        try:
            last = forward_secrecy_break(alice.d, sigma, bob.pub, decryptor, e)
        except OracleRefusedError as exc:
            return _blocked("forward-secrecy", str(exc))
        if last.success or bound_hash(message, sigma.ephemeral, e) != 0:
            return last
        # h = 0 mod n has no inverse, so r cannot be solved for; archive another message
    return last


def default_g_budget(e: CurveParams) -> list[int]:
    """Ascending odd primes with product exceeding n, each admitting a
    small-order companion-curve point over this field.

    Raises:
        NotFoundError: the primes that admit one do not cover n. A companion
            curve has at most 2q + 1 points, so no larger prime is tried.
        ValueError: covering n would take more than 16 primes.
    """
    budget = []
    product = 1
    candidates = (g for g in range(3, 2 * e.q + 2, 2) if is_probable_prime(g))
    while product <= e.n:
        candidate = next(candidates, None)
        if candidate is None:
            raise NotFoundError(
                f"the odd primes with a companion-curve point over F_{e.q}"
                f" do not cover n = {e.n}"
            )
        try:
            find_invalid_curve_point(e, candidate)
        except NotFoundError:
            continue
        budget.append(candidate)
        product *= candidate
        if len(budget) > 16:
            raise ValueError("needed more than 16 primes to cover n")
    return budget


def run_invalid_curve(
    e: CurveParams,
    mode: Mode,
    rng: Random,
    g_budget: Optional[Sequence[int]] = None,
) -> AttackReport:
    """Off-curve ephemeral points fed to the confirmation oracle leak d_B."""
    alice = gen(e, rng)
    bob = gen(e, rng)
    policy = (
        ConfirmPolicy.CONFIRM_ALWAYS if mode is Mode.VULNERABLE else ConfirmPolicy.HARDENED
    )

    def oracle(sigma: SigncryptedText, confirm_message: bytes):
        return confirmation_oracle(sigma, bob.d, alice.pub, e, confirm_message, policy)

    if g_budget is None:
        g_budget = default_g_budget(e)
    return invalid_curve_attack(e, bob.pub, oracle, b"please confirm receipt", g_budget, rng)


def run_uks(e: CurveParams, mode: Mode, rng: Random) -> AttackReport:
    """Certify the victim's public key under the attacker's name."""
    require = mode is Mode.HARDENED
    ca = CertificateAuthority(
        keypair=gen(e, rng),
        curve=e,
        policy=CAPolicy(require_pop=require, require_pk_validation=require),
        rng=Random(rng.getrandbits(64)),
    )
    alice = gen(e, rng)
    bob = gen(e, rng)
    pop = make_pop("Alice", alice, ca.pub, e, rng) if require else None
    alice_cert = ca.issue("Alice", alice.pub, FIXED_NOW, 365 * 86400, pop=pop)
    message = _message(rng)
    sigma = _honest_signcrypt(message, alice, bob.pub, e, rng, mode)
    return uks_attack(
        ca, alice_cert, bob, sigma, e, FIXED_NOW, mode=mode, expected_plaintext=message
    )


def run_zero_r(e: CurveParams, mode: Mode, rng: Random) -> AttackReport:
    """Force the degenerate ephemeral r = 0: the signature IS the private key."""
    alice = gen(e, rng)
    bob = gen(e, rng)
    try:
        sigma = signcrypt(_message(rng), alice.d, bob.pub, e, rng, mode, forced_r=0)
    except ForcedEphemeralError as exc:
        return _blocked("zero-r", f"victim refused the injected ephemeral ({exc})")
    return zero_r_probe(sigma, alice.pub, e)


def run_weak_key(e: CurveParams, mode: Mode, rng: Random) -> AttackReport:
    """Audit session keys for the identity shared point / all-zero key.

    Four sessions are honest and one is crafted degenerate: the recipient
    key is a small-order companion-curve point (accepted because nothing
    validates it) and the sender's ephemeral is a multiple of that order, so
    K = O. Hardened key derivation refuses that session, leaving only clean
    honest ones.
    Honest draws avoid x_K = 0, which at one-byte toy field widths would
    masquerade as the all-zero-key flaw under audit; after 100 draws
    without such a session NotFoundError is raised.
    """
    sessions = []
    transcript_extra = []
    bob = gen(e, rng)
    for _ in range(4):
        for _ in range(100):
            r = rng.randrange(1, e.n)
            shared = scalar_mul(r, bob.pub, e)
            if not shared.is_infinity and shared.x != 0:
                break
        else:
            raise NotFoundError("100 draws of r gave no r * U_B other than O with x != 0")
        sessions.append((shared, derive_key(shared, e, mode)))
    icp = find_invalid_curve_point(e, 3)
    degenerate_shared = scalar_mul(icp.order, icp.point, e)  # = O
    try:
        degenerate_key = derive_key(degenerate_shared, e, mode)
        sessions.append((degenerate_shared, degenerate_key))
        transcript_extra.append(
            "crafted session: small-order recipient point accepted, K = O, key derived anyway"
        )
    except KeyControlError as exc:
        transcript_extra.append(f"crafted session refused by hardened derivation: {exc}")
    report = weak_key_audit(sessions)
    return replace(report, transcript=tuple(transcript_extra) + report.transcript)


SCENARIOS: dict[str, Callable[[CurveParams, Mode, Random], AttackReport]] = {
    "ephemeral-leak": run_ephemeral_leak,
    "pair-scan": run_pair_scan,
    "forward-secrecy": run_forward_secrecy,
    "invalid-curve": run_invalid_curve,
    "uks": run_uks,
    "zero-r": run_zero_r,
    "weak-key": run_weak_key,
}
