import hashlib
import hmac as std_hmac
import sys
import threading

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import given, strategies as st

from repro.crypto.aes import AesCbc, AesCipher, cipher_for_key
from repro.crypto.hashes import get_hash, hash_bytes
from repro.crypto.hmac_prf import hmac_digest, p_hash


class TestAesKnownAnswers:
    """FIPS-197 appendix test vectors."""

    def test_aes128_fips_vector(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plain = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert AesCipher(key).encrypt_block(plain) == expected

    def test_aes192_fips_vector(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f1011121314151617")
        plain = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("dda97ca4864cdfe06eaf70a0ec0d7191")
        assert AesCipher(key).encrypt_block(plain) == expected

    def test_aes256_fips_vector(self):
        key = bytes.fromhex(
            "000102030405060708090a0b0c0d0e0f"
            "101112131415161718191a1b1c1d1e1f"
        )
        plain = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")
        assert AesCipher(key).encrypt_block(plain) == expected

    def test_decrypt_inverts_fips_vector(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        cipher = AesCipher(key)
        ct = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert cipher.decrypt_block(ct) == bytes.fromhex(
            "00112233445566778899aabbccddeeff"
        )

    def test_aes192_decrypt_fips_vector(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f1011121314151617")
        ct = bytes.fromhex("dda97ca4864cdfe06eaf70a0ec0d7191")
        assert AesCipher(key).decrypt_block(ct) == bytes.fromhex(
            "00112233445566778899aabbccddeeff"
        )

    def test_aes256_decrypt_fips_vector(self):
        key = bytes.fromhex(
            "000102030405060708090a0b0c0d0e0f"
            "101112131415161718191a1b1c1d1e1f"
        )
        ct = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")
        assert AesCipher(key).decrypt_block(ct) == bytes.fromhex(
            "00112233445566778899aabbccddeeff"
        )

    def test_invalid_key_length_rejected(self):
        with pytest.raises(ValueError):
            AesCipher(b"short")

    def test_invalid_block_rejected(self):
        with pytest.raises(ValueError):
            AesCipher(b"k" * 16).encrypt_block(b"x" * 15)


class TestAesCbc:
    def test_round_trip(self):
        cbc = AesCbc(b"k" * 16, b"i" * 16)
        plaintext = b"0123456789abcdef" * 4
        assert AesCbc(b"k" * 16, b"i" * 16).decrypt(cbc.encrypt(plaintext)) == plaintext

    def test_unaligned_input_rejected(self):
        with pytest.raises(ValueError):
            AesCbc(b"k" * 16, b"i" * 16).encrypt(b"short")

    def test_bad_iv_rejected(self):
        with pytest.raises(ValueError):
            AesCbc(b"k" * 16, b"iv")

    def test_iv_affects_ciphertext(self):
        plaintext = b"0123456789abcdef"
        a = AesCbc(b"k" * 16, b"\x00" * 16).encrypt(plaintext)
        b = AesCbc(b"k" * 16, b"\x01" + b"\x00" * 15).encrypt(plaintext)
        assert a != b

    def test_cross_validation_with_cryptography(self):
        key, iv = b"K" * 32, b"I" * 16
        plaintext = b"cross validation" * 2
        ours = AesCbc(key, iv).encrypt(plaintext)
        enc = Cipher(algorithms.AES(key), modes.CBC(iv)).encryptor()
        theirs = enc.update(plaintext) + enc.finalize()
        assert ours == theirs

    @given(st.binary(min_size=16, max_size=64).filter(lambda b: len(b) % 16 == 0))
    def test_round_trip_property(self, plaintext):
        key, iv = b"p" * 16, b"q" * 16
        ct = AesCbc(key, iv).encrypt(plaintext)
        assert AesCbc(key, iv).decrypt(ct) == plaintext
        assert ct != plaintext


# NIST SP 800-38A appendix F.2: CBC-AES128/192/256, one IV and
# plaintext for all three keys.
SP800_38A_IV = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
SP800_38A_PLAIN = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)
SP800_38A_CBC = [
    pytest.param(
        "2b7e151628aed2a6abf7158809cf4f3c",
        "7649abac8119b246cee98e9b12e9197d"
        "5086cb9b507219ee95db113a917678b2"
        "73bed6b8e3c1743b7116e69e22229516"
        "3ff1caa1681fac09120eca307586e1a7",
        id="aes128",
    ),
    pytest.param(
        "8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b",
        "4f021db243bc633d7178183a9fa071e8"
        "b4d9ada9ad7dedf4e5e738763f69145a"
        "571b242012fb7ae07fa9baac3df102e0"
        "08b0e27988598881d920a9e64f5615cd",
        id="aes192",
    ),
    pytest.param(
        "603deb1015ca71be2b73aef0857d7781"
        "1f352c073b6108d72d9810a30914dff4",
        "f58c4c04d6e5f1ba779eabfb5f7bfbd6"
        "9cfc4e967edb808d679f777bc6702c7d"
        "39f23369a9d9bacfa530e26304231461"
        "b2eb05e2c39be9fcda6c19078c6a9d1b",
        id="aes256",
    ),
]


@pytest.mark.parametrize("key_hex,ct_hex", SP800_38A_CBC)
class TestAesCbcSp80038a:
    def test_encrypt(self, key_hex, ct_hex):
        cbc = AesCbc(bytes.fromhex(key_hex), SP800_38A_IV)
        assert cbc.encrypt(SP800_38A_PLAIN) == bytes.fromhex(ct_hex)

    def test_decrypt(self, key_hex, ct_hex):
        cbc = AesCbc(bytes.fromhex(key_hex), SP800_38A_IV)
        assert cbc.decrypt(bytes.fromhex(ct_hex)) == SP800_38A_PLAIN


def _reference_cbc(key: bytes, iv: bytes):
    return Cipher(algorithms.AES(key), modes.CBC(iv))


keys = st.sampled_from([16, 24, 32]).flatmap(
    lambda n: st.binary(min_size=n, max_size=n)
)
ivs = st.binary(min_size=16, max_size=16)
aligned = st.integers(1, 64).flatmap(
    lambda n: st.binary(min_size=16 * n, max_size=16 * n)
)


class TestAesCbcAgainstReference:
    """Byte-equality with the OpenSSL-backed ``cryptography`` package."""

    @given(key=keys, iv=ivs, plaintext=aligned)
    def test_encrypt_matches(self, key, iv, plaintext):
        enc = _reference_cbc(key, iv).encryptor()
        expected = enc.update(plaintext) + enc.finalize()
        ours = AesCbc(key, iv).encrypt(plaintext)
        assert ours == expected
        assert AesCbc(key, iv).decrypt(ours) == plaintext

    @given(key=keys, iv=ivs, data=aligned)
    def test_decrypt_of_foreign_bytes_matches(self, key, iv, data):
        # Peers (hostile servers, live targets) send block-aligned
        # bytes this code never encrypted; decryption must still agree.
        dec = _reference_cbc(key, iv).decryptor()
        expected = dec.update(data) + dec.finalize()
        assert AesCbc(key, iv).decrypt(data) == expected

    def test_shared_cipher_is_thread_safe(self):
        """One memoized cipher used from several threads at once gives
        the serial output."""
        key, iv = bytes(range(32)), bytes(range(16, 32))
        messages = [bytes([n]) * 16 * (1 + n % 5) for n in range(24)]
        serial = [AesCbc(key, iv).encrypt(m) for m in messages]
        assert AesCbc(key, iv)._cipher is cipher_for_key(key)
        results: dict[int, list[bytes]] = {}
        start = threading.Barrier(6)

        def worker(n):
            start.wait(timeout=10)
            out = []
            for m in messages:
                ct = AesCbc(key, iv).encrypt(m)
                assert AesCbc(key, iv).decrypt(ct) == m
                out.append(ct)
            results[n] = out

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(n,)) for n in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == {n: serial for n in range(6)}


class TestHashes:
    def test_registry_lookup(self):
        assert get_hash("sha256").digest_size == 32
        assert get_hash("SHA1").digest_size == 20
        assert get_hash("md5").digest_size == 16

    def test_unknown_hash_rejected(self):
        with pytest.raises(ValueError):
            get_hash("sha512")

    def test_digest_matches_hashlib(self):
        assert hash_bytes("sha256", b"x") == hashlib.sha256(b"x").digest()

    def test_strength_ordering(self):
        assert get_hash("md5").strength_rank < get_hash("sha1").strength_rank
        assert get_hash("sha1").strength_rank < get_hash("sha256").strength_rank


class TestHmacAndPHash:
    def test_hmac_matches_stdlib(self):
        ours = hmac_digest("sha256", b"key", b"data")
        theirs = std_hmac.new(b"key", b"data", "sha256").digest()
        assert ours == theirs

    def test_p_hash_deterministic(self):
        a = p_hash("sha256", b"secret", b"seed", 64)
        b = p_hash("sha256", b"secret", b"seed", 64)
        assert a == b

    def test_p_hash_length(self):
        for length in (0, 1, 31, 32, 33, 100):
            assert len(p_hash("sha1", b"s", b"x", length)) == length

    def test_p_hash_prefix_property(self):
        # P_hash output for a shorter length is a prefix of a longer one.
        long = p_hash("sha256", b"secret", b"seed", 96)
        short = p_hash("sha256", b"secret", b"seed", 48)
        assert long[:48] == short

    def test_p_hash_secret_sensitivity(self):
        assert p_hash("sha256", b"a", b"seed", 32) != p_hash("sha256", b"b", b"seed", 32)

    def test_p_hash_negative_length_rejected(self):
        with pytest.raises(ValueError):
            p_hash("sha256", b"s", b"x", -1)
