"""Symmetric building blocks: hash, keystream cipher, MAC, key derivation."""

import hashlib
from random import Random

import pytest

from hlslab.curve import INFINITY, Point
from hlslab.errors import KeyControlError
from hlslab.primitives import (
    Mode,
    derive_key,
    field_len,
    hash_bytes,
    hash_to_scalar,
    int_to_bytes,
    mac,
    stream_decrypt,
    stream_encrypt,
    x_coordinate_bytes,
)


class TestHash:
    def test_empty_input_vector(self):
        # FIPS 180-4 SHA-256 of the empty string
        assert hash_bytes(b"").hex() == (
            "e3b0c44298fc1c149afbf4c8996fb924"
            "27ae41e4649b934ca495991b7852b855"
        )

    def test_length(self):
        assert len(hash_bytes(b"x" * 1000)) == 32

    def test_hash_to_scalar_known_value(self):
        assert hash_to_scalar(b"test", 19) == 4

    def test_hash_to_scalar_is_reduced_digest(self):
        for data in (b"", b"abc", b"0" * 100):
            expected = int.from_bytes(hashlib.sha256(data).digest(), "big")
            assert hash_to_scalar(data, 19) == expected % 19
            assert hash_to_scalar(data, 2**255) == expected % 2**255

    def test_hash_to_scalar_tiny_modulus_rejected(self):
        with pytest.raises(ValueError):
            hash_to_scalar(b"x", 1)


class TestIntCodec:
    @pytest.mark.parametrize("q,length", [(17, 1), (255, 1), (256, 2), (41887, 2)])
    def test_field_len(self, q, length):
        assert field_len(q) == length

    def test_field_len_secp(self, secp256k1):
        assert field_len(secp256k1.q) == 32

    def test_int_to_bytes_padding(self):
        assert int_to_bytes(5, 1) == b"\x05"
        assert int_to_bytes(5, 4) == b"\x00\x00\x00\x05"
        assert int_to_bytes(0, 2) == b"\x00\x00"

    def test_int_to_bytes_overflow(self):
        with pytest.raises(ValueError):
            int_to_bytes(256, 1)

    def test_int_to_bytes_negative(self):
        with pytest.raises(ValueError):
            int_to_bytes(-1, 4)

    def test_roundtrip(self):
        rng = Random(9)
        for _ in range(100):
            length = rng.randrange(1, 40)
            x = rng.randrange(256**length)
            assert int.from_bytes(int_to_bytes(x, length), "big") == x


class TestStreamCipher:
    def test_involution(self):
        rng = Random(10)
        for _ in range(50):
            key = rng.randbytes(rng.randrange(1, 33))
            message = rng.randbytes(rng.randrange(0, 200))
            assert stream_decrypt(key, stream_encrypt(key, message)) == message

    def test_length_preserved(self):
        assert len(stream_encrypt(b"k", b"x" * 77)) == 77
        assert stream_encrypt(b"k", b"") == b""

    def test_keystream_block_layout(self):
        # block j of the keystream is sha256(key || j as 8 big-endian bytes)
        key = b"\x0a"
        zeros = bytes(40)
        expected = (
            hashlib.sha256(key + (0).to_bytes(8, "big")).digest()
            + hashlib.sha256(key + (1).to_bytes(8, "big")).digest()[:8]
        )
        assert stream_encrypt(key, zeros) == expected

    @pytest.mark.parametrize(
        "key",
        [b"\x07", b"\xa3\x9f", bytes(range(1, 33)), bytes(1), bytes(2), bytes(32)],
        ids=["1B", "2B", "32B", "zero-1B", "zero-2B", "zero-32B"],
    )
    def test_keystream_past_block_255(self, key):
        # widths of toy17, mid16 and secp256k1 field elements, and the all-zero
        # key that vulnerable derive_key gives for O; 8,193 blocks reach the
        # counter's second byte, and the last block is cut after 5 bytes
        length = 256 * 1024 + 5
        reference = b"".join(
            hashlib.sha256(key + j.to_bytes(8, "big")).digest() for j in range(8193)
        )[:length]
        assert stream_encrypt(key, bytes(length)) == reference

    def test_keystream_past_block_65535(self):
        # blocks 65,535 and 65,536 straddle the counter's third byte
        key = b"\xa3\x9f"
        tail = b"".join(
            hashlib.sha256(key + j.to_bytes(8, "big")).digest() for j in (65535, 65536)
        )
        assert stream_encrypt(key, bytes(65537 * 32))[-64:] == tail

    @pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 65, 100, 1000])
    def test_matches_bytewise_xor(self, length):
        # stream_encrypt XORs two whole integers; leading zero bytes must
        # survive it, in the message and in the ciphertext alike
        key = b"\x07"
        keystream = stream_encrypt(key, bytes(length))
        rng = Random(length)
        for message in (rng.randbytes(length), bytes(length), keystream):
            expected = bytes(m ^ k for m, k in zip(message, keystream))
            assert stream_encrypt(key, message) == expected

    def test_wrong_key_garbles(self):
        c = stream_encrypt(b"\x01", b"attack at dawn")
        assert stream_decrypt(b"\x02", c) != b"attack at dawn"


class TestMac:
    def test_rfc_4231_case_1(self):
        key = b"\x0b" * 20
        assert mac(key, b"Hi There").hex() == (
            "b0344c61d8db38535ca8afceaf0bf12b"
            "881dc200c9833da726e9376c2e32cff7"
        )

    def test_matches_explicit_pad_construction(self):
        rng = Random(11)
        for key_len in (1, 16, 64, 65, 200):
            key = rng.randbytes(key_len)
            message = rng.randbytes(37)
            padded = key if len(key) <= 64 else hashlib.sha256(key).digest()
            padded = padded + bytes(64 - len(padded))
            inner = hashlib.sha256(
                bytes(b ^ 0x36 for b in padded) + message
            ).digest()
            expected = hashlib.sha256(bytes(b ^ 0x5C for b in padded) + inner).digest()
            assert mac(key, message) == expected

    def test_key_sensitivity(self):
        assert mac(b"\x00", b"m") != mac(b"\x01", b"m")


class TestXCoordinateBytes:
    def test_affine(self, toy):
        assert x_coordinate_bytes(Point(5, 1), toy.q) == b"\x05"

    def test_infinity_is_all_zeros(self, toy, secp256k1):
        assert x_coordinate_bytes(INFINITY, toy.q) == b"\x00"
        assert x_coordinate_bytes(INFINITY, secp256k1.q) == bytes(32)

    def test_fixed_width(self, secp256k1):
        assert len(x_coordinate_bytes(secp256k1.g, secp256k1.q)) == 32
        assert len(x_coordinate_bytes(Point(1, 5), secp256k1.q)) == 32


class TestDeriveKey:
    def test_affine_key_is_x_bytes(self, toy):
        assert derive_key(Point(10, 11), toy, Mode.VULNERABLE) == b"\x0a"
        assert derive_key(Point(10, 11), toy, Mode.HARDENED) == b"\x0a"

    def test_negated_point_same_key(self, toy):
        # K and -K share x, so the derived key cannot see the sign
        assert derive_key(Point(9, 16), toy, Mode.VULNERABLE) == derive_key(
            Point(9, 1), toy, Mode.VULNERABLE
        )

    def test_identity_vulnerable_all_zero(self, toy, secp256k1):
        assert derive_key(INFINITY, toy, Mode.VULNERABLE) == b"\x00"
        assert derive_key(INFINITY, secp256k1, Mode.VULNERABLE) == bytes(32)

    def test_identity_hardened_refused(self, toy):
        with pytest.raises(KeyControlError):
            derive_key(INFINITY, toy, Mode.HARDENED)
