"""Signcryption scheme: the frozen worked example, roundtrips, refusals.

The worked example (d_A=3, d_B=7, r=5, message "hi") was computed end to end
by an independent script and every intermediate frozen here: R = (9,16),
K = (10,11), session key 0x0a, ciphertext 6e6e, bound hash 4, signature 2.
"""

from random import Random

import pytest

from hlslab.curve import INFINITY, CurveParams, Point, find_invalid_curve_point, scalar_mul
from hlslab.errors import (
    ForcedEphemeralError,
    InvalidEphemeralKeyError,
    KeyControlError,
    ZeroHashError,
)
from hlslab.hls import (
    ConfirmPolicy,
    KeyPair,
    Mode,
    SigncryptedText,
    confirmation_oracle,
    gen,
    keypair_from_dict,
    keypair_to_dict,
    signcrypt,
    signcrypted_from_dict,
    signcrypted_to_dict,
    unsigncrypt,
    validate_ephemeral_point,
)
from hlslab.primitives import (
    derive_key,
    hash_to_scalar,
    mac,
    stream_encrypt,
    x_coordinate_bytes,
)

D_A, D_B, R_SCALAR, MESSAGE = 3, 7, 5, b"hi"


@pytest.fixture()
def alice(toy):
    return KeyPair(d=D_A, pub=scalar_mul(D_A, toy.g, toy))


@pytest.fixture()
def bob(toy):
    return KeyPair(d=D_B, pub=scalar_mul(D_B, toy.g, toy))


class TestWorkedExample:
    def test_frozen_triple(self, toy, alice, bob):
        sigma = signcrypt(MESSAGE, alice.d, bob.pub, toy, Random(0), forced_r=R_SCALAR)
        assert sigma.ephemeral == Point(9, 16)
        assert sigma.ciphertext.hex() == "6e6e"
        assert sigma.signature == 2

    def test_frozen_intermediates(self, toy, alice, bob):
        assert alice.pub == Point(10, 6)
        assert bob.pub == Point(0, 6)
        assert scalar_mul(R_SCALAR, bob.pub, toy) == Point(10, 11)  # K
        h = hash_to_scalar(MESSAGE + x_coordinate_bytes(Point(9, 16), toy.q), toy.n)
        assert h == 4
        assert (D_A - h * R_SCALAR) % toy.n == 2

    def test_unsigncrypt_accepts(self, toy, alice, bob):
        sigma = SigncryptedText(bytes.fromhex("6e6e"), Point(9, 16), 2)
        assert unsigncrypt(sigma, bob.d, alice.pub, toy) == MESSAGE

    def test_verification_identity(self, toy, alice):
        # s*G + h*R == U_A
        from hlslab.curve import point_add

        lhs = point_add(
            scalar_mul(2, toy.g, toy), scalar_mul(4, Point(9, 16), toy), toy
        )
        assert lhs == alice.pub


class TestGen:
    def test_key_in_range_and_consistent(self, toy):
        rng = Random(12)
        for _ in range(50):
            kp = gen(toy, rng)
            assert 1 <= kp.d < toy.n
            assert kp.pub == scalar_mul(kp.d, toy.g, toy)

    def test_deterministic(self, toy):
        assert gen(toy, Random(1)) == gen(toy, Random(1))


class TestRoundtrip:
    @pytest.mark.parametrize("mode", [Mode.VULNERABLE, Mode.HARDENED])
    def test_toy(self, toy, mode):
        rng = Random(13)
        for _ in range(30):
            alice, bob = gen(toy, rng), gen(toy, rng)
            message = rng.randbytes(rng.randrange(0, 80))
            try:
                sigma = signcrypt(message, alice.d, bob.pub, toy, rng, mode)
            except ZeroHashError:
                continue  # hardened refusal on a zero bound hash; not a roundtrip case
            assert unsigncrypt(sigma, bob.d, alice.pub, toy, mode) == message

    def test_secp256k1(self, secp256k1):
        rng = Random(14)
        alice, bob = gen(secp256k1, rng), gen(secp256k1, rng)
        for _ in range(3):
            message = rng.randbytes(100)
            sigma = signcrypt(message, alice.d, bob.pub, secp256k1, rng)
            assert unsigncrypt(sigma, bob.d, alice.pub, secp256k1) == message

    def test_modes_agree_on_honest_inputs(self, toy):
        # same seed, no refusal triggered: byte-identical wire triples
        rng = Random(15)
        alice, bob = gen(toy, rng), gen(toy, rng)
        message = b"ordinary message"
        v = signcrypt(message, alice.d, bob.pub, toy, Random(99), Mode.VULNERABLE)
        h = signcrypt(message, alice.d, bob.pub, toy, Random(99), Mode.HARDENED)
        assert v == h


class TestRejection:
    def test_tampered_ciphertext_rejected(self, secp256k1):
        rng = Random(16)
        alice, bob = gen(secp256k1, rng), gen(secp256k1, rng)
        sigma = signcrypt(b"payload", alice.d, bob.pub, secp256k1, rng)
        bad = SigncryptedText(
            bytes([sigma.ciphertext[0] ^ 1]) + sigma.ciphertext[1:],
            sigma.ephemeral,
            sigma.signature,
        )
        assert unsigncrypt(bad, bob.d, alice.pub, secp256k1) is None

    def test_tampered_signature_rejected(self, secp256k1):
        rng = Random(17)
        alice, bob = gen(secp256k1, rng), gen(secp256k1, rng)
        sigma = signcrypt(b"payload", alice.d, bob.pub, secp256k1, rng)
        bad = SigncryptedText(
            sigma.ciphertext, sigma.ephemeral, (sigma.signature + 1) % secp256k1.n
        )
        assert unsigncrypt(bad, bob.d, alice.pub, secp256k1) is None

    def test_wrong_sender_key_rejected(self, toy, alice, bob):
        sigma = SigncryptedText(bytes.fromhex("6e6e"), Point(9, 16), 2)
        mallory_pub = scalar_mul(11, toy.g, toy)
        assert unsigncrypt(sigma, bob.d, mallory_pub, toy) is None

    def test_tampered_toy_triple_rejected(self, toy, alice, bob):
        # deterministic fixture: this particular flip moves h off 4 mod 19
        sigma = SigncryptedText(bytes.fromhex("6f6e"), Point(9, 16), 2)
        assert unsigncrypt(sigma, bob.d, alice.pub, toy) is None

    def test_rejection_is_none_not_exception(self, toy, alice, bob):
        sigma = SigncryptedText(b"\x00\x00", Point(9, 16), 7)
        result = unsigncrypt(sigma, bob.d, alice.pub, toy)
        assert result is None


class TestForcedEphemeral:
    def test_zero_r_means_signature_is_the_key(self, toy, alice, bob):
        rng = Random(18)
        for _ in range(10):
            message = rng.randbytes(12)
            sigma = signcrypt(message, alice.d, bob.pub, toy, rng, forced_r=0)
            assert sigma.ephemeral == INFINITY
            assert sigma.signature == alice.d  # s = d_A - h*0

    def test_out_of_range_rejected(self, toy, alice, bob):
        with pytest.raises(ValueError):
            signcrypt(b"m", alice.d, bob.pub, toy, Random(0), forced_r=19)
        with pytest.raises(ValueError):
            signcrypt(b"m", alice.d, bob.pub, toy, Random(0), forced_r=-1)

    def test_hardened_refuses_injection(self, toy, alice, bob):
        with pytest.raises(ForcedEphemeralError):
            signcrypt(
                b"m", alice.d, bob.pub, toy, Random(0), Mode.HARDENED, forced_r=5
            )


class TestZeroHashRefusal:
    # message hunted offline: with Random(42) the first draw is r = 4,
    # R = (3,1), and H("m35" || x_R) == 0 mod 19
    def test_hardened_refuses(self, toy, alice, bob):
        with pytest.raises(ZeroHashError):
            signcrypt(b"m35", alice.d, bob.pub, toy, Random(42), Mode.HARDENED)

    def test_vulnerable_leaks_the_key_instead(self, toy, alice, bob):
        sigma = signcrypt(b"m35", alice.d, bob.pub, toy, Random(42), Mode.VULNERABLE)
        h = hash_to_scalar(b"m35" + x_coordinate_bytes(sigma.ephemeral, toy.q), toy.n)
        assert h == 0
        assert sigma.signature == alice.d  # s = d_A - 0*r


class TestIdentitySharedPoint:
    # recipient "public key" of order 3; Random(5) first draws r = 9, a
    # multiple of 3, so K = r*W = O
    def test_vulnerable_derives_all_zero_key(self, toy, alice):
        w = find_invalid_curve_point(toy, 3).point
        sigma = signcrypt(b"m", alice.d, w, toy, Random(5), Mode.VULNERABLE)
        assert sigma.ciphertext == stream_encrypt(b"\x00", b"m")

    def test_hardened_refuses(self, toy, alice):
        w = find_invalid_curve_point(toy, 3).point
        with pytest.raises(KeyControlError):
            signcrypt(b"m", alice.d, w, toy, Random(5), Mode.HARDENED)


class TestEphemeralValidation:
    def test_valid_point_passes(self, toy):
        validate_ephemeral_point(Point(9, 16), toy)

    def test_identity_rejected(self, toy):
        with pytest.raises(InvalidEphemeralKeyError, match="identity"):
            validate_ephemeral_point(INFINITY, toy)

    def test_out_of_range_rejected(self, toy):
        with pytest.raises(InvalidEphemeralKeyError, match="range"):
            validate_ephemeral_point(Point(20, 1), toy)

    def test_off_curve_rejected(self, toy):
        with pytest.raises(InvalidEphemeralKeyError, match="curve equation"):
            validate_ephemeral_point(Point(0, 7), toy)

    def test_wrong_subgroup_rejected(self):
        # F_17 curve with 20 points; declared subgroup order 5, (3,4) has order 10
        host = CurveParams(q=17, a=2, b=0, g=Point(8, 1), n=5, cofactor=4)
        validate_ephemeral_point(Point(8, 1), host)
        with pytest.raises(InvalidEphemeralKeyError, match="subgroup"):
            validate_ephemeral_point(Point(3, 4), host)

    def test_hardened_unsigncrypt_validates_first(self, toy, alice, bob):
        sigma = SigncryptedText(b"\x00\x00", Point(0, 7), 2)
        with pytest.raises(InvalidEphemeralKeyError):
            unsigncrypt(sigma, bob.d, alice.pub, toy, Mode.HARDENED)

    def test_vulnerable_unsigncrypt_accepts_off_curve_point(self, toy, alice, bob):
        # the vulnerable path processes the same triple without complaint
        sigma = SigncryptedText(b"\x00\x00", Point(0, 7), 2)
        unsigncrypt(sigma, bob.d, alice.pub, toy, Mode.VULNERABLE)  # must not raise


class TestKeyRangeChecks:
    def test_signcrypt_sender_key(self, toy, bob):
        for bad in (0, 19, -1):
            with pytest.raises(ValueError):
                signcrypt(b"m", bad, bob.pub, toy, Random(0))

    def test_unsigncrypt_recipient_key(self, toy, alice):
        sigma = SigncryptedText(b"\x00", Point(9, 16), 2)
        for bad in (0, 19):
            with pytest.raises(ValueError):
                unsigncrypt(sigma, bad, alice.pub, toy)


class TestConfirmationOracle:
    @pytest.fixture()
    def valid_sigma(self, toy, alice, bob):
        return signcrypt(MESSAGE, alice.d, bob.pub, toy, Random(0), forced_r=R_SCALAR)

    def test_confirm_always_answers_without_verifying(self, toy, alice, bob):
        # garbage signature, off-curve ephemeral: a tag still comes back
        w = find_invalid_curve_point(toy, 3).point
        crafted = SigncryptedText(b"\xde\xad", w, 11)
        result = confirmation_oracle(
            crafted, bob.d, alice.pub, toy, b"confirm", ConfirmPolicy.CONFIRM_ALWAYS
        )
        assert result is not None
        message, tag = result
        assert message == b"confirm"
        key = derive_key(scalar_mul(bob.d, w, toy), toy, Mode.VULNERABLE)
        assert tag == mac(key, b"confirm")

    def test_confirm_after_verify_accepts_valid(self, toy, alice, bob, valid_sigma):
        result = confirmation_oracle(
            valid_sigma, bob.d, alice.pub, toy, b"c", ConfirmPolicy.CONFIRM_AFTER_VERIFY
        )
        assert result is not None

    def test_confirm_after_verify_rejects_tampered(self, toy, alice, bob, valid_sigma):
        bad = SigncryptedText(
            valid_sigma.ciphertext, valid_sigma.ephemeral, (valid_sigma.signature + 1) % 19
        )
        assert (
            confirmation_oracle(
                bad, bob.d, alice.pub, toy, b"c", ConfirmPolicy.CONFIRM_AFTER_VERIFY
            )
            is None
        )

    def test_hardened_rejects_off_curve_before_any_key_use(self, toy, alice, bob):
        w = find_invalid_curve_point(toy, 3).point
        crafted = SigncryptedText(b"\xde\xad", w, 11)
        with pytest.raises(InvalidEphemeralKeyError):
            confirmation_oracle(
                crafted, bob.d, alice.pub, toy, b"c", ConfirmPolicy.HARDENED
            )

    def test_hardened_accepts_valid(self, toy, alice, bob, valid_sigma):
        result = confirmation_oracle(
            valid_sigma, bob.d, alice.pub, toy, b"c", ConfirmPolicy.HARDENED
        )
        assert result is not None

    def test_hardened_confirm_multiplies_no_more_than_unsigncrypt(self, mid16, monkeypatch):
        # the tag is keyed by the session key unsigncryption derived; d_B * R is not redone
        rng = Random(5)
        sender, recipient = gen(mid16, rng), gen(mid16, rng)
        sigma = signcrypt(b"counted", sender.d, recipient.pub, mid16, rng, Mode.HARDENED)
        calls = []

        def counting_scalar_mul(*args):
            calls.append(args)
            return scalar_mul(*args)

        monkeypatch.setattr("hlslab.hls.scalar_mul", counting_scalar_mul)
        assert unsigncrypt(sigma, recipient.d, sender.pub, mid16, Mode.HARDENED) == b"counted"
        unsigncrypt_calls = len(calls)
        calls.clear()
        result = confirmation_oracle(
            sigma, recipient.d, sender.pub, mid16, b"c", ConfirmPolicy.HARDENED
        )
        assert len(calls) == unsigncrypt_calls == 4
        key = derive_key(scalar_mul(recipient.d, sigma.ephemeral, mid16), mid16, Mode.HARDENED)
        assert result == (b"c", mac(key, b"c"))


class TestSerialization:
    def test_keypair_roundtrip(self, toy):
        kp = gen(toy, Random(19))
        assert keypair_from_dict(keypair_to_dict(kp)) == kp

    def test_keypair_dict_shape(self, alice):
        assert keypair_to_dict(alice) == {"d": "0x3", "ux": "0xa", "uy": "0x6"}

    def test_keypair_identity_pub_rejected(self):
        with pytest.raises(ValueError):
            keypair_to_dict(KeyPair(d=1, pub=INFINITY))

    def test_keypair_missing_keys(self):
        with pytest.raises(ValueError, match="missing"):
            keypair_from_dict({"d": "0x3"})

    def test_signcrypted_roundtrip(self, toy, alice, bob):
        sigma = signcrypt(b"msg", alice.d, bob.pub, toy, Random(20))
        assert signcrypted_from_dict(signcrypted_to_dict(sigma)) == sigma

    def test_signcrypted_infinity_ephemeral(self, toy, alice, bob):
        sigma = signcrypt(b"msg", alice.d, bob.pub, toy, Random(0), forced_r=0)
        d = signcrypted_to_dict(sigma)
        assert d["R"] == "infinity"
        assert signcrypted_from_dict(d) == sigma

    def test_signcrypted_dict_shape(self, toy, alice, bob):
        sigma = SigncryptedText(bytes.fromhex("6e6e"), Point(9, 16), 2)
        assert signcrypted_to_dict(sigma) == {
            "C": "6e6e",
            "R": {"x": "0x9", "y": "0x10"},
            "s": "0x2",
        }

    def test_signcrypted_missing_keys(self):
        with pytest.raises(ValueError, match="missing"):
            signcrypted_from_dict({"C": "6e6e"})
