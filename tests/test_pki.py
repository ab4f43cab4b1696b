"""CA, Schnorr signatures, proof of possession, and the three checklists.

The six bad parameter sets (five JSON fixtures plus the singular set built
inline) were constructed by direct arithmetic and verified by an independent
checker script; each must fail exactly one domain check.
"""

import hashlib
import json
from dataclasses import replace
from random import Random

import pytest

from conftest import load_bad_fixture
from hlslab.curve import INFINITY, CurveParams, Point, find_invalid_curve_point, scalar_mul
from hlslab.errors import PopInvalidError, PopRequiredError, PublicKeyInvalidError
from hlslab.hls import KeyPair, gen, signcrypt
from hlslab.pki import (
    CAPolicy,
    Certificate,
    CertificateAuthority,
    SchnorrSig,
    _schnorr_verdict,
    cert_from_dict,
    cert_to_dict,
    certificate_body,
    make_pop,
    pop_challenge,
    schnorr_sign,
    schnorr_verify,
    sig_from_dict,
    sig_to_dict,
    validate_certificate,
    validate_domain_params,
    validate_public_key,
    verify_pop,
)
from hlslab.primitives import Mode

NOW = 1_700_000_000
LIFETIME = 365 * 86400


@pytest.fixture()
def ca(toy):
    return CertificateAuthority(keypair=gen(toy, Random(21)), curve=toy, rng=Random(22))


@pytest.fixture()
def alice(toy):
    return gen(toy, Random(23))


class TestSchnorr:
    def test_roundtrip(self, toy):
        kp = gen(toy, Random(24))
        sig = schnorr_sign(b"body", kp.d, toy, Random(25))
        assert schnorr_verify(b"body", sig, kp.pub, toy)

    def test_wrong_body_fails(self, toy):
        kp = gen(toy, Random(24))
        sig = schnorr_sign(b"body", kp.d, toy, Random(25))
        assert not schnorr_verify(b"other", sig, kp.pub, toy)

    def test_wrong_key_fails(self, toy):
        kp = gen(toy, Random(24))
        sig = schnorr_sign(b"body", kp.d, toy, Random(25))
        other = gen(toy, Random(26))
        assert not schnorr_verify(b"body", sig, other.pub, toy)

    def test_out_of_range_components_fail_closed(self, toy):
        kp = gen(toy, Random(24))
        assert not schnorr_verify(b"body", SchnorrSig(e=19, z=1), kp.pub, toy)
        assert not schnorr_verify(b"body", SchnorrSig(e=1, z=-1), kp.pub, toy)

    def test_z_equal_to_n_fails_closed(self, toy):
        # z = n names the point z = 0 does, so the verdict alone accepts it and
        # only the range check refuses it; e = n needs no such test, since
        # hash_to_scalar is always < n and the verdict refuses it anyway
        kp = gen(toy, Random(1))
        assert schnorr_sign(b"body", kp.d, toy, Random(6)) == SchnorrSig(e=12, z=0)
        assert _schnorr_verdict(b"body", SchnorrSig(e=12, z=toy.n), kp.pub, toy)
        assert not schnorr_verify(b"body", SchnorrSig(e=12, z=toy.n), kp.pub, toy)

    def test_zero_components_of_a_valid_signature_verify(self, toy):
        # e = 0 and z = 0 are in range: both signatures below are honest
        kp = gen(toy, Random(1))
        for seed, sig in ((2, SchnorrSig(e=0, z=2)), (6, SchnorrSig(e=12, z=0))):
            assert schnorr_sign(b"body", kp.d, toy, Random(seed)) == sig
            assert schnorr_verify(b"body", sig, kp.pub, toy)

    def test_secp_roundtrip(self, secp256k1):
        kp = gen(secp256k1, Random(27))
        sig = schnorr_sign(b"large scale", kp.d, secp256k1, Random(28))
        assert schnorr_verify(b"large scale", sig, kp.pub, secp256k1)


class TestVerdictCache:
    """The Schnorr verdict is kept per (body, signature, key, curve); no
    changed input, out-of-range component, expiry or revocation is read
    from an earlier call."""

    @pytest.fixture()
    def mid_ca(self, mid16):
        _schnorr_verdict.cache_clear()
        return CertificateAuthority(keypair=gen(mid16, Random(40)), curve=mid16, rng=Random(41))

    def test_cache_is_bounded(self):
        assert _schnorr_verdict.cache_info().maxsize == 64

    def test_changed_copies_of_a_verified_certificate_are_refused(self, mid16, mid_ca):
        owner, other = gen(mid16, Random(42)), gen(mid16, Random(43))
        cert = mid_ca.issue("Alice", owner.pub, NOW, LIFETIME)
        assert validate_certificate(cert, mid_ca.pub, NOW, mid_ca.crl, mid16).ok
        copies = [
            replace(cert, subject="Mallory"),
            replace(cert, not_after=cert.not_after + 1),
            replace(cert, public_key=other.pub),
        ]
        for copy in copies:
            report = validate_certificate(copy, mid_ca.pub, NOW, mid_ca.crl, mid16)
            assert report.failed_names() == ["signature"], copy
        assert validate_certificate(cert, mid_ca.pub, NOW, mid_ca.crl, mid16).ok

    def test_out_of_range_components_of_a_verified_signature_fail(self, mid16):
        kp = gen(mid16, Random(44))
        sig = schnorr_sign(b"body", kp.d, mid16, Random(45))
        assert schnorr_verify(b"body", sig, kp.pub, mid16)
        n = mid16.n
        shifted = [(sig.e + n, sig.z), (sig.e, sig.z + n), (sig.e - n, sig.z), (sig.e, sig.z - n)]
        for e, z in shifted:
            assert not schnorr_verify(b"body", SchnorrSig(e, z), kp.pub, mid16), (e, z)

    def test_cached_verdicts_equal_fresh_ones(self, mid16):
        rng = Random(46)
        keys = [gen(mid16, rng) for _ in range(4)]
        verdicts = []
        for i in range(200):
            kp = keys[i % 4]
            body = rng.randbytes(rng.randrange(1, 40))
            sig = schnorr_sign(body, kp.d, mid16, rng)
            forgery = i % 4
            if forgery == 1:
                body += b"!"
            elif forgery == 2:
                sig = SchnorrSig(sig.e, (sig.z + rng.randrange(1, mid16.n)) % mid16.n)
            elif forgery == 3:
                sig = SchnorrSig(rng.randrange(mid16.n), rng.randrange(mid16.n))
            args = (body, sig, kp.pub, mid16)
            first = schnorr_verify(*args)
            hits = _schnorr_verdict.cache_info().hits
            assert schnorr_verify(*args) == first
            assert _schnorr_verdict.cache_info().hits == hits + 1
            verdicts.append((args, first))
            assert first == (forgery == 0), i
        _schnorr_verdict.cache_clear()
        assert [schnorr_verify(*args) for args, _ in verdicts] == [v for _, v in verdicts]

    def test_expiry_and_revocation_are_read_on_every_call(self, mid16, mid_ca):
        cert = mid_ca.issue("Alice", gen(mid16, Random(47)).pub, NOW, LIFETIME)
        assert validate_certificate(cert, mid_ca.pub, NOW, mid_ca.crl, mid16).ok
        late = validate_certificate(cert, mid_ca.pub, NOW + LIFETIME + 1, mid_ca.crl, mid16)
        assert late.failed_names() == ["expiry"]
        mid_ca.revoke(cert.serial)
        report = validate_certificate(cert, mid_ca.pub, NOW, mid_ca.crl, mid16)
        assert report.failed_names() == ["revocation"]


class TestCertificateBody:
    def test_canonical_form(self):
        body = certificate_body(1, "A", Point(5, 1), 0, 1)
        assert body == (
            b'{"notAfter":"0x1","notBefore":"0x0",'
            b'"publicKey":{"x":"0x5","y":"0x1"},'
            b'"serial":"0x1","subject":"A"}'
        )

    def test_deterministic(self, alice):
        args = (7, "Alice", alice.pub, NOW, NOW + 1)
        assert certificate_body(*args) == certificate_body(*args)


class TestCertificateDataclass:
    def test_inverted_window_rejected(self, alice):
        with pytest.raises(ValueError):
            Certificate(1, "A", alice.pub, 10, 5, SchnorrSig(0, 0))

    def test_negative_serial_rejected(self, alice):
        with pytest.raises(ValueError):
            Certificate(-1, "A", alice.pub, 0, 1, SchnorrSig(0, 0))

    def test_one_second_window_and_serial_zero_accepted(self, alice):
        cert = Certificate(0, "A", alice.pub, 5, 5, SchnorrSig(0, 0))
        assert (cert.serial, cert.not_before, cert.not_after) == (0, 5, 5)


class TestIssueAndValidate:
    def test_valid_cert_passes_all_three_checks(self, toy, ca, alice):
        cert = ca.issue("Alice", alice.pub, NOW, LIFETIME)
        report = validate_certificate(cert, ca.pub, NOW + 100, ca.crl, toy)
        assert report.ok
        assert [c.name for c in report.checks] == ["signature", "expiry", "revocation"]

    def test_serials_increment(self, ca, alice):
        first = ca.issue("A", alice.pub, NOW, LIFETIME)
        second = ca.issue("B", alice.pub, NOW, LIFETIME)
        assert (first.serial, second.serial) == (1, 2)

    def test_expired_fails_exactly_expiry(self, toy, ca, alice):
        cert = ca.issue("Alice", alice.pub, NOW, LIFETIME)
        report = validate_certificate(cert, ca.pub, NOW + LIFETIME + 1, ca.crl, toy)
        assert report.failed_names() == ["expiry"]

    def test_valid_through_the_last_second(self, toy, ca, alice):
        cert = ca.issue("Alice", alice.pub, NOW, LIFETIME)
        assert cert.not_after == NOW + LIFETIME
        assert validate_certificate(cert, ca.pub, cert.not_after, ca.crl, toy).ok

    def test_not_yet_valid_fails_exactly_expiry(self, toy, ca, alice):
        cert = ca.issue("Alice", alice.pub, NOW, LIFETIME)
        report = validate_certificate(cert, ca.pub, NOW - 1, ca.crl, toy)
        assert report.failed_names() == ["expiry"]

    def test_revoked_fails_exactly_revocation(self, toy, ca, alice):
        cert = ca.issue("Alice", alice.pub, NOW, LIFETIME)
        ca.revoke(cert.serial)
        report = validate_certificate(cert, ca.pub, NOW, ca.crl, toy)
        assert report.failed_names() == ["revocation"]

    def test_tampered_signature_fails_exactly_signature(self, toy, ca, alice):
        cert = ca.issue("Alice", alice.pub, NOW, LIFETIME)
        forged = Certificate(
            cert.serial,
            cert.subject,
            cert.public_key,
            cert.not_before,
            cert.not_after,
            SchnorrSig(cert.signature.e, (cert.signature.z + 1) % toy.n),
        )
        report = validate_certificate(forged, ca.pub, NOW, ca.crl, toy)
        assert report.failed_names() == ["signature"]

    def test_altered_subject_fails_signature(self, toy, ca, alice):
        cert = ca.issue("Alice", alice.pub, NOW, LIFETIME)
        renamed = Certificate(
            cert.serial, "Mallory", cert.public_key,
            cert.not_before, cert.not_after, cert.signature,
        )
        report = validate_certificate(renamed, ca.pub, NOW, ca.crl, toy)
        assert report.failed_names() == ["signature"]


class TestProofOfPossession:
    def test_roundtrip(self, toy, ca, alice):
        pop = make_pop("Alice", alice, ca.pub, toy, Random(29))
        assert verify_pop("Alice", alice.pub, ca.pub, pop, toy)

    def test_wrong_subject_fails(self, toy, ca, alice):
        pop = make_pop("Alice", alice, ca.pub, toy, Random(29))
        assert not verify_pop("Mallory", alice.pub, ca.pub, pop, toy)

    def test_challenge_binds_everything(self, toy, ca, alice):
        base = pop_challenge(ca.pub, "Alice", alice.pub, toy)
        assert pop_challenge(ca.pub, "Alicf", alice.pub, toy) != base
        assert pop_challenge(alice.pub, "Alice", alice.pub, toy) != base
        assert pop_challenge(ca.pub, "Alice", ca.pub, toy) != base

    def test_challenge_known_answer(self, toy, ca, alice):
        # SHA-256 of b"pop-challenge-v1" || CA (16, 13) || len("Alice") as 4
        # big-endian bytes || "Alice" || key (7, 11), one byte per coordinate
        assert (ca.pub, alice.pub) == (Point(16, 13), Point(7, 11))
        assert pop_challenge(ca.pub, "Alice", alice.pub, toy) == bytes.fromhex(
            "adb9f59418d4f96c8470a6d445bfc6a78822d92aefc53e4510fc016b4ad1fd22"
        )
        # the identity encodes as two all-zero coordinates
        layout = b"pop-challenge-v1" + bytes([16, 13]) + (5).to_bytes(4, "big") + b"Alice"
        assert pop_challenge(ca.pub, "Alice", INFINITY, toy) == (
            hashlib.sha256(layout + bytes(2)).digest()
        )

    def test_policy_requires_pop(self, toy, ca, alice):
        ca.policy = CAPolicy(require_pop=True)
        with pytest.raises(PopRequiredError):
            ca.issue("Mallory", alice.pub, NOW, LIFETIME)

    def test_policy_rejects_bad_pop(self, toy, ca, alice):
        ca.policy = CAPolicy(require_pop=True)
        mallory = gen(toy, Random(30))
        # Mallory signs with her own key but claims Alice's public key
        pop = make_pop("Mallory", mallory, ca.pub, toy, Random(31))
        with pytest.raises(PopInvalidError):
            ca.issue("Mallory", alice.pub, NOW, LIFETIME, pop=pop)

    def test_policy_accepts_good_pop(self, toy, ca, alice):
        ca.policy = CAPolicy(require_pop=True)
        pop = make_pop("Alice", alice, ca.pub, toy, Random(32))
        cert = ca.issue("Alice", alice.pub, NOW, LIFETIME, pop=pop)
        assert cert.subject == "Alice"


class TestPublicKeyPolicy:
    def test_lax_ca_certifies_off_curve_key(self, ca):
        cert = ca.issue("Eve", Point(0, 7), NOW, LIFETIME)  # not on the curve
        assert cert.public_key == Point(0, 7)

    def test_validating_ca_refuses_off_curve_key(self, ca):
        ca.policy = CAPolicy(require_pk_validation=True)
        with pytest.raises(PublicKeyInvalidError, match="on-curve"):
            ca.issue("Eve", Point(0, 7), NOW, LIFETIME)

    def test_validating_ca_accepts_honest_key(self, ca, alice):
        ca.policy = CAPolicy(require_pk_validation=True)
        cert = ca.issue("Alice", alice.pub, NOW, LIFETIME)
        assert cert.subject == "Alice"

    def test_validating_ca_refuses_key_outside_the_subgroup(self):
        # #E = 22 but n = 11: (2, 7) lies on the curve and outside <G>
        e = load_bad_fixture("bad_small_order")
        policy = CAPolicy(require_pk_validation=True)
        ca = CertificateAuthority(gen(e, Random(21)), e, policy=policy, rng=Random(22))
        with pytest.raises(PublicKeyInvalidError, match="failed checks: subgroup-order$"):
            ca.issue("Eve", Point(2, 7), NOW, LIFETIME)
        # hardened signcrypt refuses the same key by the same check
        with pytest.raises(PublicKeyInvalidError, match="not in the order-n subgroup"):
            signcrypt(b"m", 1, Point(2, 7), e, Random(0), Mode.HARDENED)


class TestValidatePublicKey:
    def test_honest_key_passes(self, toy, alice):
        report = validate_public_key(alice.pub, toy)
        assert report.ok
        assert [c.name for c in report.checks] == [
            "nonzero", "coordinate-range", "on-curve",
        ]

    def test_identity_fails_exactly_nonzero(self, toy):
        report = validate_public_key(INFINITY, toy)
        assert report.failed_names() == ["nonzero"]

    def test_out_of_range(self, toy):
        report = validate_public_key(Point(20, 1), toy)
        assert "coordinate-range" in report.failed_names()
        assert not report.ok

    def test_off_curve_fails_exactly_on_curve(self, toy):
        report = validate_public_key(Point(0, 7), toy)
        assert report.failed_names() == ["on-curve"]

    def test_invalid_curve_attack_points_fail_on_curve(self, toy):
        for g in (3, 7, 11):
            w = find_invalid_curve_point(toy, g).point
            report = validate_public_key(w, toy)
            assert report.failed_names() == ["on-curve"], g

    def test_full_adds_subgroup_check(self, toy, alice):
        report = validate_public_key(alice.pub, toy, full=True)
        assert report.ok
        assert report.checks[3].name == "subgroup-order"
        assert report.checks[3].extended

    @pytest.mark.parametrize(
        "point,names,detail",
        [
            (INFINITY, ["nonzero"], "point is the identity"),
            (Point(20, 1), ["nonzero", "coordinate-range"], "coordinates out of field range"),
            (
                Point(0, 7),
                ["nonzero", "coordinate-range", "on-curve"],
                "point does not satisfy the curve equation",
            ),
        ],
        ids=["identity", "out-of-range", "off-curve"],
    )
    def test_full_report_ends_at_first_failure(self, toy, point, names, detail):
        report = validate_public_key(point, toy, full=True)
        assert [c.name for c in report.checks] == names
        assert report.failed_names() == names[-1:]
        assert report.checks[-1].detail == detail

    def test_full_catches_wrong_subgroup(self):
        # 20-point host curve, declared subgroup order 5; (3,4) has order 10
        host = CurveParams(q=17, a=2, b=0, g=Point(8, 1), n=5, cofactor=4)
        good = validate_public_key(Point(8, 1), host, full=True)
        assert good.ok
        bad = validate_public_key(Point(3, 4), host, full=True)
        assert bad.failed_names() == ["subgroup-order"]


class TestValidateDomainParams:
    def test_toy_passes(self, toy):
        # embedding degree is 9, inherent at this field size; bound set below it
        report = validate_domain_params(toy, embedding_bound=8)
        assert report.ok, report.failed_names()

    def test_check_names_and_order(self, toy):
        report = validate_domain_params(toy, embedding_bound=8)
        assert [c.name for c in report.checks] == [
            "field-prime", "nonsingular", "base-point-on-curve", "order-prime",
            "base-point-order", "hasse-margin", "embedding-degree", "anomalous",
            "supersingular",
        ]

    def test_mid16_passes_at_default_bound(self, mid16):
        report = validate_domain_params(mid16)
        assert report.ok, report.failed_names()
        assert report.checks[6].detail.endswith("for i = 1..20")

    def test_secp256k1_passes_at_default_bound(self, secp256k1):
        report = validate_domain_params(secp256k1)
        assert report.ok, report.failed_names()

    def test_secp256k1_trace_uses_claimed_order_route(self, secp256k1):
        report = validate_domain_params(secp256k1)
        supersingular = report.checks[-1]
        assert "claimed order" in supersingular.detail

    def test_toy_trace_uses_enumeration_route(self, toy):
        report = validate_domain_params(toy, embedding_bound=8)
        assert "enumerated" in report.checks[-1].detail

    def test_toy_fails_embedding_at_strict_bound(self, toy):
        # ord_19(17) = 9, so the toy curve cannot clear a bound of 20
        report = validate_domain_params(toy, embedding_bound=20)
        assert report.failed_names() == ["embedding-degree"]
        assert "degree 9" in report.checks[6].detail

    def test_order_two_has_embedding_degree_one(self):
        # n = 2 divides q - 1 for every odd q; (0, 0) has order 2 on this 20-point curve
        e = CurveParams(q=17, a=2, b=0, g=Point(0, 0), n=2, cofactor=10)
        embedding = validate_domain_params(e, embedding_bound=8).checks[6]
        assert embedding.detail == "n divides q^1 - 1 (embedding degree 1 <= 8)"

    def test_hasse_margin_fails_at_n_equal_to_four_root_q(self):
        # n^2 = 16q needs a square q, so the boundary is reached only off a field
        e = CurveParams(q=9, a=2, b=1, g=Point(0, 1), n=12)
        margin = validate_domain_params(e, embedding_bound=8).checks[5]
        assert (margin.passed, margin.detail) == (False, "n^2 = 144 <= 16q = 144")


BAD_FIXTURES = [
    ("bad_composite_n", 8, "order-prime"),
    ("bad_small_order", 8, "hasse-margin"),
    ("bad_anomalous", 8, "anomalous"),
    ("bad_embedding", 20, "embedding-degree"),
    ("bad_base_point", 8, "base-point-on-curve"),
]


class TestBadParameterFixtures:
    @pytest.mark.parametrize("name,bound,expected", BAD_FIXTURES)
    def test_fails_exactly_the_intended_check(self, name, bound, expected):
        e = load_bad_fixture(name)
        report = validate_domain_params(e, embedding_bound=bound)
        assert report.failed_names() == [expected]

    def test_singular_fails_exactly_nonsingular(self):
        # 4*3^3 + 27*8^2 = 1836 = 108*17; no affine base point exists on a
        # singular set that would not also trip a second check, so G = O
        e = CurveParams(q=17, a=3, b=8, g=INFINITY, n=47)
        report = validate_domain_params(e, embedding_bound=8)
        assert report.failed_names() == ["nonsingular"]

    def test_composite_n_details(self):
        e = load_bad_fixture("bad_composite_n")
        assert e.n == 38  # 2 * 19; n*G == O still holds
        report = validate_domain_params(e, embedding_bound=8)
        assert report.checks[4].passed  # base-point-order

    def test_base_point_fixture_is_off_curve_but_order_checks_pass(self):
        # (0,7) lies on the b' = 15 companion, which also has 19 points, so
        # n*G == O under the b-blind addition law; only membership fails
        e = load_bad_fixture("bad_base_point")
        report = validate_domain_params(e, embedding_bound=8)
        assert report.checks[2].name == "base-point-on-curve"
        assert not report.checks[2].passed
        assert report.checks[4].passed


class TestReportShape:
    def test_to_dict(self, toy):
        d = validate_domain_params(toy, embedding_bound=8).to_dict()
        assert d["ok"] is True
        assert len(d["checks"]) == 9
        assert set(d["checks"][0]) == {"name", "passed", "detail", "extended"}


class TestPkiSerialization:
    def test_sig_roundtrip(self):
        sig = SchnorrSig(e=3, z=14)
        assert sig_from_dict(sig_to_dict(sig)) == sig

    def test_cert_roundtrip(self, ca, alice):
        cert = ca.issue("Alice", alice.pub, NOW, LIFETIME)
        assert cert_from_dict(cert_to_dict(cert)) == cert

    def test_cert_dict_shape(self, ca, alice):
        d = cert_to_dict(ca.issue("Alice", alice.pub, NOW, LIFETIME))
        assert set(d) == {"serial", "subject", "publicKey", "notBefore", "notAfter", "sig"}
        assert set(d["sig"]) == {"e", "z"}

    def test_fixed_certificate_dict(self):
        # the file's key order and encodings; TestCertificateBody pins the
        # signed body built from the same fields
        cert = Certificate(7, "Alice", Point(5, 1), 10, 20, SchnorrSig(e=3, z=14))
        assert json.dumps(cert_to_dict(cert)) == (
            '{"serial": "0x7", "subject": "Alice", "publicKey": {"x": "0x5", "y": "0x1"},'
            ' "notBefore": "0xa", "notAfter": "0x14", "sig": {"e": "0x3", "z": "0xe"}}'
        )

    def test_cert_missing_keys(self):
        with pytest.raises(ValueError, match="missing"):
            cert_from_dict({"serial": "0x1"})
