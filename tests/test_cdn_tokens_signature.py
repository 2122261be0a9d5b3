"""Access tokens and the signature cipher (footnote 1)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.cdn.signature import OP_REVERSE, OP_SWAP, SignatureCipher, decipher
from repro.cdn.tokens import TokenMint
from repro.errors import SignatureError, TokenError


class TestTokenMint:
    def make(self, ttl=3600.0):
        return TokenMint(secret=b"test-secret", ttl_s=ttl)

    def test_issue_verify_roundtrip(self):
        mint = self.make()
        token = mint.issue(100.0, "videoVIDEO1", "1.2.3.4", pool="wifi-net")
        claims = mint.verify(token, now=200.0, video_id="videoVIDEO1", pool="wifi-net")
        assert claims.client_address == "1.2.3.4"
        assert claims.expires_at == pytest.approx(3700.0)

    def test_expired_token_rejected(self):
        mint = self.make(ttl=10.0)
        token = mint.issue(0.0, "videoVIDEO1", "c", pool="p")
        with pytest.raises(TokenError, match="expired"):
            mint.verify(token, now=11.0, video_id="videoVIDEO1", pool="p")

    def test_valid_until_the_hour(self):
        # Paper: tokens are valid for an hour (§4).
        mint = TokenMint(secret=b"k")
        token = mint.issue(0.0, "videoVIDEO1", "c", pool="p")
        assert mint.verify(token, now=3599.0, video_id="videoVIDEO1", pool="p")
        with pytest.raises(TokenError):
            mint.verify(token, now=3601.0, video_id="videoVIDEO1", pool="p")

    def test_wrong_video_rejected(self):
        mint = self.make()
        token = mint.issue(0.0, "videoVIDEO1", "c", pool="p")
        with pytest.raises(TokenError, match="different video"):
            mint.verify(token, now=1.0, video_id="otherVIDEO2", pool="p")

    def test_wrong_pool_rejected(self):
        # The §4 binding: a token matches one video server pool.
        mint = self.make()
        token = mint.issue(0.0, "videoVIDEO1", "c", pool="wifi-net")
        with pytest.raises(TokenError, match="pool"):
            mint.verify(token, now=1.0, video_id="videoVIDEO1", pool="lte-net")

    def test_tampered_token_rejected(self):
        mint = self.make()
        token = mint.issue(0.0, "videoVIDEO1", "c", pool="p")
        tampered = token.replace("videoVIDEO1", "evilVIDEOx1")
        with pytest.raises(TokenError):
            mint.verify(tampered, now=1.0, video_id="evilVIDEOx1", pool="p")

    def test_foreign_mint_rejected(self):
        token = TokenMint(secret=b"a").issue(0.0, "videoVIDEO1", "c", pool="p")
        with pytest.raises(TokenError, match="signature"):
            TokenMint(secret=b"b").verify(token, now=1.0, video_id="videoVIDEO1", pool="p")

    def test_malformed_token_rejected(self):
        with pytest.raises(TokenError):
            self.make().verify("garbage", now=0.0, video_id="v", pool="p")

    def test_non_ascii_mac_is_a_signature_mismatch(self):
        # hmac.compare_digest raises TypeError on a non-ASCII str; the
        # video server catches only TokenError, so it used to escape.
        mint = self.make()
        token = mint.issue(0.0, "videoVIDEO1", "c", pool="p")
        for forged in (token[:-1] + "é", token[:-24] + "é" * 24, token + "\u20ac"):
            with pytest.raises(TokenError, match="signature"):
                mint.verify(forged, now=1.0, video_id="videoVIDEO1", pool="p")
        assert mint.verify(token, now=1.0, video_id="videoVIDEO1", pool="p")

    def test_operation_scope(self):
        mint = self.make()
        token = mint.issue(0.0, "videoVIDEO1", "c", pool="p", operations="play,seek")
        assert mint.verify(token, 1.0, "videoVIDEO1", "p", operation="seek")
        with pytest.raises(TokenError, match="not authorized"):
            mint.verify(token, 1.0, "videoVIDEO1", "p", operation="delete")

    def test_separator_in_claim_rejected(self):
        mint = self.make()
        with pytest.raises(TokenError):
            mint.issue(0.0, "bad~video~1", "c", pool="p")

    def test_mint_validation(self):
        with pytest.raises(TokenError):
            TokenMint(secret=b"")
        with pytest.raises(TokenError):
            TokenMint(secret=b"k", ttl_s=0.0)


class TestMacMemo:
    """The mint remembers MACs per payload; every claim check still runs."""

    def test_verified_once_still_rejected_on_every_claim(self):
        mint = TokenMint(secret=b"test-secret", ttl_s=10.0)
        token = mint.issue(0.0, "videoVIDEO1", "c", pool="wifi-net")
        assert mint.verify(token, now=5.0, video_id="videoVIDEO1", pool="wifi-net")
        assert mint._mac.cache_info().currsize == 1
        with pytest.raises(TokenError, match="expired"):
            mint.verify(token, now=10.5, video_id="videoVIDEO1", pool="wifi-net")
        with pytest.raises(TokenError, match="different video"):
            mint.verify(token, now=5.0, video_id="otherVIDEO2", pool="wifi-net")
        with pytest.raises(TokenError, match="pool"):
            mint.verify(token, now=5.0, video_id="videoVIDEO1", pool="lte-net")
        with pytest.raises(TokenError, match="not authorized"):
            mint.verify(token, 5.0, "videoVIDEO1", "wifi-net", operation="seek")
        flipped = token[:-1] + ("1" if token[-1] == "0" else "0")
        with pytest.raises(TokenError, match="signature"):
            mint.verify(flipped, now=5.0, video_id="videoVIDEO1", pool="wifi-net")
        # ... all answered from the one remembered MAC.
        assert mint._mac.cache_info().currsize == 1
        assert mint._mac.cache_info().hits >= 5

    def test_mints_with_different_secrets_never_share_a_mac(self):
        first, second = TokenMint(secret=b"a"), TokenMint(secret=b"b")
        token = first.issue(0.0, "videoVIDEO1", "c", pool="p")
        assert first.verify(token, now=1.0, video_id="videoVIDEO1", pool="p")
        # Same payload, warm in the first mint's memo: the second mint
        # derives its own MAC and refuses.
        with pytest.raises(TokenError, match="signature"):
            second.verify(token, now=1.0, video_id="videoVIDEO1", pool="p")
        payload = token.rsplit("~", 1)[0]
        assert first._mac(payload) != second._mac(payload)
        assert first._mac is not second._mac
        assert second.issue(0.0, "videoVIDEO1", "c", pool="p") != token

    def test_memo_is_bounded_under_forged_payloads(self):
        from repro.cdn.tokens import _MAC_MEMO_SIZE

        mint = TokenMint(secret=b"k")
        for index in range(4 * _MAC_MEMO_SIZE):
            with pytest.raises(TokenError, match="signature"):
                mint.verify(f"v{index}~c~play~p~3600.000~{'0' * 24}", 1.0, f"v{index}", "p")
        assert mint._mac.cache_info().currsize == _MAC_MEMO_SIZE


class TestSignatureCipher:
    def test_encipher_changes_signature(self):
        cipher = SignatureCipher(((OP_REVERSE, 0), (OP_SWAP, 3)), pad=2)
        assert cipher.encipher("abcdef123") != "abcdef123"

    def test_decoder_roundtrip(self):
        cipher = SignatureCipher(((OP_REVERSE, 0), (OP_SWAP, 3), (OP_REVERSE, 0)), pad=3)
        enciphered = cipher.encipher("da0a1b2c3d4e5f")
        assert decipher(enciphered, cipher.decoder_program()) == "da0a1b2c3d4e5f"

    @given(
        st.text(alphabet="0123456789abcdefABCDEF.", min_size=8, max_size=64),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_roundtrip_random_programs(self, signature, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        cipher = SignatureCipher.random(rng, steps=5, pad=3)
        assert decipher(cipher.encipher(signature), cipher.decoder_program()) == signature

    def test_empty_signature_rejected(self):
        cipher = SignatureCipher(((OP_REVERSE, 0),), pad=1)
        with pytest.raises(SignatureError):
            cipher.encipher("")

    def test_unknown_operation_rejected(self):
        with pytest.raises(SignatureError):
            decipher("abc", [("rot13", 0)])

    def test_decoder_page_size_realistic(self):
        cipher = SignatureCipher(((OP_REVERSE, 0),))
        assert cipher.decoder_page_size() >= 64 * 1024

    def test_random_requires_steps(self, rng):
        with pytest.raises(SignatureError):
            SignatureCipher.random(rng, steps=0)
