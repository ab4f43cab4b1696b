"""Signcryption scheme: the frozen worked example, roundtrips, refusals.

The worked example (d_A=3, d_B=7, r=5, message "hi") was computed end to end
by an independent script and every intermediate frozen here: R = (9,16),
K = (10,11), session key 0x0a, ciphertext 6e6e, bound hash 4, signature 2.
"""

import dataclasses
from random import Random

import pytest

from conftest import HOST_20
import hlslab.curve as curve_module
from hlslab.curve import (
    INFINITY,
    CurveParams,
    Point,
    _odd_multiples,
    find_invalid_curve_point,
    is_on_curve,
    scalar_mul,
    scalar_mul_sum,
)
from hlslab.errors import (
    ForcedEphemeralError,
    InvalidEphemeralKeyError,
    KeyControlError,
    NotInvertibleError,
    PublicKeyInvalidError,
    ZeroHashError,
)
from hlslab.hls import (
    ConfirmPolicy,
    KeyPair,
    Mode,
    SigncryptedText,
    _hls_verdict,
    bound_hash,
    confirmation_oracle,
    gen,
    keypair_from_dict,
    keypair_to_dict,
    public_key_checks,
    signcrypt,
    signcrypted_from_dict,
    signcrypted_to_dict,
    unsigncrypt,
    validate_ephemeral_point,
)
from hlslab.primitives import (
    derive_key,
    field_len,
    hash_to_scalar,
    mac,
    stream_decrypt,
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

    def test_modes_agree_on_a_bulk_message(self, mid16):
        # 256 KiB + 1: the keystream spans 8,193 blocks and ends mid-block
        rng = Random(18)
        alice, bob = gen(mid16, rng), gen(mid16, rng)
        message = rng.randbytes(256 * 1024 + 1)
        triples = {
            mode: signcrypt(message, alice.d, bob.pub, mid16, Random(7), mode)
            for mode in Mode
        }
        assert triples[Mode.VULNERABLE] == triples[Mode.HARDENED]
        for mode, sigma in triples.items():
            assert unsigncrypt(sigma, bob.d, alice.pub, mid16, mode) == message


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
        # the off-curve W is refused as a recipient key before any r * W
        w = find_invalid_curve_point(toy, 3).point
        with pytest.raises(PublicKeyInvalidError, match="curve equation"):
            signcrypt(b"m", alice.d, w, toy, Random(5), Mode.HARDENED)
        # a key that passes that gate can still give O, here because a wrong
        # composite n = 10 lets the order-5 G through and r = 5 is drawn
        host = dataclasses.replace(HOST_20, n=10, cofactor=2)
        with pytest.raises(KeyControlError):
            signcrypt(b"m", 1, host.g, host, Random(5), Mode.HARDENED)


class TestRecipientKeyValidation:
    def test_companion_curve_key_refused_only_when_hardened(self, mid16):
        # an order-5 point of a companion curve as the recipient's "key": the
        # vulnerable signcrypt leaks r mod 5 through the shared point, the
        # hardened one refuses the key before multiplying it
        w = find_invalid_curve_point(mid16, 5).point
        sigma = signcrypt(b"m", 2, w, mid16, Random(1), Mode.VULNERABLE)
        assert len(sigma.ciphertext) == 1
        with pytest.raises(PublicKeyInvalidError, match="curve equation"):
            signcrypt(b"m", 2, w, mid16, Random(1), Mode.HARDENED)

    @pytest.mark.parametrize(
        "key,reason",
        [
            (INFINITY, "identity"),
            (Point(20, 1), "range"),
            (Point(0, 7), "curve equation"),
            (Point(3, 4), "subgroup"),  # on the curve, outside the order-5 group
        ],
    )
    def test_hardened_refusals_on_host_curve(self, key, reason):
        # the cofactor-4 curve's group is not of prime order n, so n * U is
        # really computed
        with pytest.raises(PublicKeyInvalidError, match=reason):
            signcrypt(b"m", 1, key, HOST_20, Random(0), Mode.HARDENED)

    def test_valid_key_accepted(self, toy, alice, bob):
        sigma = signcrypt(b"m", alice.d, bob.pub, toy, Random(3), Mode.HARDENED)
        assert unsigncrypt(sigma, bob.d, alice.pub, toy, Mode.HARDENED) == b"m"


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
        validate_ephemeral_point(Point(8, 1), HOST_20)
        with pytest.raises(InvalidEphemeralKeyError, match="subgroup"):
            validate_ephemeral_point(Point(3, 4), HOST_20)

    def test_hardened_unsigncrypt_validates_first(self, toy, alice, bob):
        sigma = SigncryptedText(b"\x00\x00", Point(0, 7), 2)
        with pytest.raises(InvalidEphemeralKeyError):
            unsigncrypt(sigma, bob.d, alice.pub, toy, Mode.HARDENED)

    def test_vulnerable_unsigncrypt_accepts_off_curve_point(self, toy, alice, bob):
        # the vulnerable path processes the same triple without complaint
        sigma = SigncryptedText(b"\x00\x00", Point(0, 7), 2)
        unsigncrypt(sigma, bob.d, alice.pub, toy, Mode.VULNERABLE)  # must not raise


class TestUnreducedEphemeral:
    # an honest mid16 triple with R's x or y replaced by the same value plus q:
    # x_R + q >= 2^16 has no 2-byte field encoding for the bound hash
    @pytest.fixture()
    def honest(self, mid16):
        rng = Random(1)
        alice, bob = gen(mid16, rng), gen(mid16, rng)
        sigma = signcrypt(b"unreduced", alice.d, bob.pub, mid16, rng)
        assert sigma.ephemeral.x + mid16.q >= 2**16
        return alice, bob, sigma

    @staticmethod
    def shifted(sigma, dx, dy):
        r = sigma.ephemeral
        return dataclasses.replace(sigma, ephemeral=Point(r.x + dx, r.y + dy))

    def test_vulnerable_rejects_x_without_encoding(self, mid16, honest):
        alice, bob, sigma = honest
        bad = self.shifted(sigma, mid16.q, 0)
        assert unsigncrypt(bad, bob.d, alice.pub, mid16, Mode.VULNERABLE) is None
        policy = ConfirmPolicy.CONFIRM_AFTER_VERIFY
        assert confirmation_oracle(bad, bob.d, alice.pub, mid16, b"c", policy) is None

    def test_hardened_refuses_x_out_of_range(self, mid16, honest):
        alice, bob, sigma = honest
        bad = self.shifted(sigma, mid16.q, 0)
        with pytest.raises(InvalidEphemeralKeyError, match="out of field range"):
            unsigncrypt(bad, bob.d, alice.pub, mid16, Mode.HARDENED)
        with pytest.raises(InvalidEphemeralKeyError, match="out of field range"):
            confirmation_oracle(bad, bob.d, alice.pub, mid16, b"c", ConfirmPolicy.HARDENED)

    def test_confirm_always_still_answers(self, mid16, honest):
        # the tag-first policy never hashes x_R; d_B * R reduces R mod q
        alice, bob, sigma = honest
        bad = self.shifted(sigma, mid16.q, 0)
        policy = ConfirmPolicy.CONFIRM_ALWAYS
        assert confirmation_oracle(bad, bob.d, alice.pub, mid16, b"c", policy) == (
            confirmation_oracle(sigma, bob.d, alice.pub, mid16, b"c", policy)
        )

    def test_vulnerable_accepts_unreduced_y(self, mid16, honest):
        # y_R is never encoded, and d_B * R and h * R reduce it mod q
        alice, bob, sigma = honest
        bad = self.shifted(sigma, 0, mid16.q)
        assert unsigncrypt(bad, bob.d, alice.pub, mid16, Mode.VULNERABLE) == b"unreduced"

    def test_vulnerable_rejects_x_at_the_encoding_boundary(self, mid16, honest):
        # x_R = 256 ** 2 is the least x with no 2-byte encoding: a verdict of
        # None, not the encoder's ValueError
        alice, bob, sigma = honest
        bad = self.shifted(sigma, 256 ** field_len(mid16.q) - sigma.ephemeral.x, 0)
        assert bad.ephemeral.x == 65536
        assert unsigncrypt(bad, bob.d, alice.pub, mid16, Mode.VULNERABLE) is None

    def test_unencodable_x_refused_before_decrypting(self, mid16, honest, monkeypatch):
        # the x_R guard runs before the keystream, so a refused 256 KiB
        # ciphertext costs no decryption on either path
        alice, bob, sigma = honest
        bad = self.shifted(sigma, 256 ** field_len(mid16.q) - sigma.ephemeral.x, 0)
        bad = dataclasses.replace(bad, ciphertext=bytes(256 * 1024))
        calls = []

        def counted(key, ciphertext):
            calls.append(len(ciphertext))
            return stream_decrypt(key, ciphertext)

        monkeypatch.setattr("hlslab.hls.stream_decrypt", counted)
        assert unsigncrypt(bad, bob.d, alice.pub, mid16, Mode.VULNERABLE) is None
        policy = ConfirmPolicy.CONFIRM_AFTER_VERIFY
        assert confirmation_oracle(bad, bob.d, alice.pub, mid16, b"c", policy) is None
        assert calls == []
        # an encodable x still decrypts, once per path
        assert unsigncrypt(sigma, bob.d, alice.pub, mid16, Mode.VULNERABLE) == b"unreduced"
        assert confirmation_oracle(sigma, bob.d, alice.pub, mid16, b"c", policy) is not None
        assert calls == [len(sigma.ciphertext)] * 2

    def test_coordinate_equal_to_q_fails_coordinate_range(self, mid16):
        for p in (Point(mid16.q, 9580), Point(0, mid16.q)):
            failed = [name for name, failure in public_key_checks(p, mid16) if failure]
            assert failed[0] == "coordinate-range", p

    def test_hardened_refuses_x_equal_to_q(self, mid16, honest):
        # G = (0, 9580), so (q, 9580) satisfies the equation mod q and has
        # n * R = O: only the range check stands between it and acceptance
        alice, bob, sigma = honest
        bad = dataclasses.replace(sigma, ephemeral=Point(mid16.q, 9580))
        assert list(public_key_checks(bad.ephemeral, mid16))[2:] == [
            ("on-curve", None),
            ("subgroup-order", None),
        ]
        with pytest.raises(InvalidEphemeralKeyError, match="out of field range"):
            unsigncrypt(bad, bob.d, alice.pub, mid16, Mode.HARDENED)
        with pytest.raises(InvalidEphemeralKeyError, match="out of field range"):
            confirmation_oracle(bad, bob.d, alice.pub, mid16, b"c", ConfirmPolicy.HARDENED)


class TestUndefinedCheckSum:
    # for the off-curve W of order 3, C = 01 and s = 9, s * G and h * W share
    # x, so s * G + h * W has no chord: the triple fails verification
    @pytest.fixture()
    def crafted(self, toy):
        return SigncryptedText(b"\x01", find_invalid_curve_point(toy, 3).point, 9)

    def test_sum_is_undefined(self, toy, bob, crafted):
        w = crafted.ephemeral
        key = derive_key(scalar_mul(bob.d, w, toy), toy, Mode.VULNERABLE)
        h = bound_hash(stream_decrypt(key, crafted.ciphertext), w, toy)
        with pytest.raises(NotInvertibleError):
            scalar_mul_sum(crafted.signature, h, w, toy)

    def test_vulnerable_unsigncrypt_rejects(self, toy, alice, bob, crafted):
        assert unsigncrypt(crafted, bob.d, alice.pub, toy, Mode.VULNERABLE) is None
        policy = ConfirmPolicy.CONFIRM_AFTER_VERIFY
        assert confirmation_oracle(crafted, bob.d, alice.pub, toy, b"c", policy) is None

    def test_rejected_on_every_call(self, toy, alice, bob, crafted):
        # NotInvertibleError passes through the verdict cache, which keeps nothing
        _hls_verdict.cache_clear()
        for _ in range(2):
            assert unsigncrypt(crafted, bob.d, alice.pub, toy, Mode.VULNERABLE) is None
        assert _hls_verdict.cache_info().currsize == 0


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
        # the tag is keyed by the session key unsigncryption derived, and the
        # confirm path reads unsigncrypt's kept verdict; d_B * R is redone
        rng = Random(5)
        sender, recipient = gen(mid16, rng), gen(mid16, rng)
        sigma = signcrypt(b"counted", sender.d, recipient.pub, mid16, rng, Mode.HARDENED)
        calls = []

        def counting(mul):
            def counted(*args):
                calls.append(args)
                return mul(*args)

            return counted

        def confirm():
            calls.clear()
            return confirmation_oracle(
                sigma, recipient.d, sender.pub, mid16, b"c", ConfirmPolicy.HARDENED
            )

        # n * R, d_B * R, and s * G + h * R in one call
        monkeypatch.setattr("hlslab.hls.scalar_mul", counting(scalar_mul))
        monkeypatch.setattr("hlslab.hls.scalar_mul_sum", counting(scalar_mul_sum))
        _hls_verdict.cache_clear()
        assert unsigncrypt(sigma, recipient.d, sender.pub, mid16, Mode.HARDENED) == b"counted"
        assert len(calls) == 3
        # n * R and d_B * R; the sum's verdict is unsigncrypt's
        result = confirm()
        assert len(calls) == 2
        _hls_verdict.cache_clear()
        assert confirm() == result
        assert len(calls) == 3
        key = derive_key(scalar_mul(recipient.d, sigma.ephemeral, mid16), mid16, Mode.HARDENED)
        assert result == (b"c", mac(key, b"c"))


class TestVerdictCache:
    """The verdict of s * G + h * R == U_A is kept per (s, h, R, U_A, curve);
    no changed triple, other sender key or skipped refusal is read from an
    earlier call."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        _hls_verdict.cache_clear()

    @pytest.fixture()
    def mid_parties(self, mid16):
        rng = Random(50)
        return gen(mid16, rng), gen(mid16, rng), gen(mid16, rng)

    @staticmethod
    def changed_copies(sigma, other_ephemeral, n):
        flipped = bytes([sigma.ciphertext[0] ^ 1]) + sigma.ciphertext[1:]
        return [
            dataclasses.replace(sigma, signature=(sigma.signature + 1) % n),
            dataclasses.replace(sigma, ciphertext=flipped),  # another M, so another h
            dataclasses.replace(sigma, ephemeral=other_ephemeral),
        ]

    def test_cache_is_bounded(self):
        assert _hls_verdict.cache_info().maxsize == 64

    def test_cached_verdicts_equal_fresh_ones(self, mid16, mid_parties):
        sender, recipient, other = mid_parties
        rng = Random(51)
        verdicts = []
        for i in range(200):
            message = rng.randbytes(rng.randrange(1, 40))
            sigma = signcrypt(message, sender.d, recipient.pub, mid16, rng)
            pub_sender = other.pub if i % 5 == 4 else sender.pub
            if i % 5 in (1, 2, 3):
                sigma = self.changed_copies(sigma, gen(mid16, rng).pub, mid16.n)[i % 5 - 1]
            args = (sigma, recipient.d, pub_sender, mid16)
            first = unsigncrypt(*args)
            hits = _hls_verdict.cache_info().hits
            assert unsigncrypt(*args) == first
            assert _hls_verdict.cache_info().hits == hits + 1
            assert (first == message) == (i % 5 == 0), i
            verdicts.append((args, first))
        _hls_verdict.cache_clear()
        assert [unsigncrypt(*args) for args, _ in verdicts] == [v for _, v in verdicts]

    def test_changed_copies_of_a_verified_triple_are_refused(self, mid16, mid_parties):
        sender, recipient, other = mid_parties
        rng = Random(52)
        sigma = signcrypt(b"verified", sender.d, recipient.pub, mid16, rng)
        assert unsigncrypt(sigma, recipient.d, sender.pub, mid16) == b"verified"
        policy = ConfirmPolicy.CONFIRM_AFTER_VERIFY
        copies = self.changed_copies(sigma, other.pub, mid16.n)
        candidates = [(copy, sender.pub) for copy in copies] + [(sigma, other.pub)]
        for copy, pub_sender in candidates:
            assert unsigncrypt(copy, recipient.d, pub_sender, mid16) is None, copy
            assert confirmation_oracle(copy, recipient.d, pub_sender, mid16, b"c", policy) is None
        assert confirmation_oracle(sigma, recipient.d, sender.pub, mid16, b"c", policy)

    def test_hardened_refuses_an_off_curve_r_vulnerable_accepted(self, mid16, mid_parties):
        # R = W of order 3 off the curve and 3 | h, so h * W = O and s = d_A
        # verifies in vulnerable mode
        sender, recipient, _ = mid_parties
        w = find_invalid_curve_point(mid16, 3).point
        key = derive_key(scalar_mul(recipient.d, w, mid16), mid16, Mode.VULNERABLE)
        message = next(
            m for m in (b"m%d" % i for i in range(100)) if bound_hash(m, w, mid16) % 3 == 0
        )
        crafted = SigncryptedText(stream_encrypt(key, message), w, sender.d)
        assert unsigncrypt(crafted, recipient.d, sender.pub, mid16) == message
        assert _hls_verdict.cache_info().currsize == 1
        with pytest.raises(InvalidEphemeralKeyError, match="curve equation"):
            unsigncrypt(crafted, recipient.d, sender.pub, mid16, Mode.HARDENED)
        with pytest.raises(InvalidEphemeralKeyError, match="curve equation"):
            confirmation_oracle(
                crafted, recipient.d, sender.pub, mid16, b"c", ConfirmPolicy.HARDENED
            )

    def test_secp256k1_forged_signature_after_a_kept_verdict(self, secp256k1):
        e = secp256k1
        rng = Random(53)
        sender, recipient = gen(e, rng), gen(e, rng)
        sigma = signcrypt(b"session", sender.d, recipient.pub, e, rng, Mode.HARDENED)
        assert unsigncrypt(sigma, recipient.d, sender.pub, e, Mode.HARDENED) == b"session"
        policy = ConfirmPolicy.HARDENED
        assert confirmation_oracle(sigma, recipient.d, sender.pub, e, b"c", policy)
        assert _hls_verdict.cache_info().hits == 1
        forged = dataclasses.replace(sigma, signature=(sigma.signature + 1) % e.n)
        assert unsigncrypt(forged, recipient.d, sender.pub, e, Mode.HARDENED) is None
        assert confirmation_oracle(forged, recipient.d, sender.pub, e, b"c", policy) is None


class TestSecp256k1PointTables:
    def test_off_curve_ephemeral_gets_no_table(self, secp256k1):
        # vulnerable unsigncrypt multiplies an R off e by double-and-add, so
        # no odd-multiple table is built for it
        e = secp256k1
        rng = Random(31)
        sender, recipient = gen(e, rng), gen(e, rng)
        sigma = signcrypt(b"tables", sender.d, recipient.pub, e, rng, Mode.VULNERABLE)
        _odd_multiples.cache_clear()
        _hls_verdict.cache_clear()
        assert unsigncrypt(sigma, recipient.d, sender.pub, e) == b"tables"
        # R's table and G's
        built = _odd_multiples.cache_info()
        assert (built.misses, built.currsize) == (2, 2)
        r = sigma.ephemeral
        off_curve = dataclasses.replace(sigma, ephemeral=Point(r.x, (r.y + 1) % e.q))
        assert not is_on_curve(off_curve.ephemeral, e)
        assert unsigncrypt(off_curve, recipient.d, sender.pub, e) is None
        after = _odd_multiples.cache_info()
        assert (after.misses, after.currsize) == (built.misses, built.currsize)

    def test_hardened_session_operation_counts(self, secp256k1, monkeypatch):
        # signcrypt, unsigncrypt and confirm at a fixed seed, once to warm the
        # group proof and the recipient key's table, then counted; the
        # counts repeat exactly, and the bounds sit just above them
        e = secp256k1
        rng = Random(7)
        sender, recipient = gen(e, rng), gen(e, rng)

        def session():
            sigma = signcrypt(b"counted", sender.d, recipient.pub, e, rng, Mode.HARDENED)
            assert unsigncrypt(sigma, recipient.d, sender.pub, e, Mode.HARDENED) == b"counted"
            confirmed = confirmation_oracle(
                sigma, recipient.d, sender.pub, e, b"c", ConfirmPolicy.HARDENED
            )
            assert confirmed is not None

        session()
        counts = {}
        for name in ("_jacobian_add_affine", "_jacobian_double", "mod_inv"):
            counts[name] = 0

            def counted(*args, _name=name, _original=getattr(curve_module, name)):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(curve_module, name, counted)
        session()
        assert counts["_jacobian_add_affine"] <= 255
        assert counts["_jacobian_double"] <= 500
        assert counts["mod_inv"] <= 7


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
