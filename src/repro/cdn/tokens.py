"""Access tokens for video playback.

Per §4: after OAuth verification the web proxy "generates an access
token (valid for an hour) that matches the video server's IP address as
well as the operations requested", and the player splices that token
into the video URL.  We mint HMAC-signed tokens carrying exactly those
claims — video id, client public address, authorized operations, the
server pool it is valid for, and an expiry one hour out in *simulated*
time — and the video servers verify them statelessly with the shared
key.  Expired or tampered tokens earn a 403, which exercises MSPlayer's
re-bootstrap path.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from functools import lru_cache

from ..errors import TokenError

#: Paper-stated validity window: one hour.
DEFAULT_TTL_S = 3600.0

_FIELD_SEPARATOR = "~"

#: Payloads whose MAC a mint remembers.  A session presents one token
#: per path on every range request, so a handful is the working set;
#: the bound is what distinct (forged) payloads can pin.
_MAC_MEMO_SIZE = 256


def _keyed_mac(secret: bytes):
    """``payload -> MAC`` under ``secret``, remembering recent payloads.

    One memo per call, closed over the secret (not over a mint, so it
    keeps no instance alive): two mints never see each other's entries.
    """

    @lru_cache(maxsize=_MAC_MEMO_SIZE)
    def mac(payload: str) -> str:
        return hmac.new(secret, payload.encode("utf-8"), hashlib.sha256).hexdigest()[:24]

    return mac


@dataclass(frozen=True)
class TokenClaims:
    """What a token asserts."""

    video_id: str
    client_address: str
    operations: str  # e.g. "play", comma-joined if several
    pool: str  # which network's video-server pool may honor it
    expires_at: float  # simulated-clock seconds


class TokenMint:
    """Issues and verifies HMAC tokens against a simulated clock."""

    def __init__(self, secret: bytes, ttl_s: float = DEFAULT_TTL_S) -> None:
        if not secret:
            raise TokenError("mint secret must be non-empty")
        if ttl_s <= 0:
            raise TokenError("ttl must be positive")
        self.ttl_s = ttl_s
        # Only the keyed hash is remembered — every claim check in
        # verify() still runs on every call.
        self._mac = _keyed_mac(secret)

    # -- issuing -----------------------------------------------------------

    def issue(
        self,
        now: float,
        video_id: str,
        client_address: str,
        pool: str,
        operations: str = "play",
    ) -> str:
        """Mint a token valid for :attr:`ttl_s` seconds from ``now``."""
        claims = TokenClaims(video_id, client_address, operations, pool, now + self.ttl_s)
        payload = self._payload(claims)
        return f"{payload}{_FIELD_SEPARATOR}{self._mac(payload)}"

    @staticmethod
    def _payload(claims: TokenClaims) -> str:
        for field in (claims.video_id, claims.client_address, claims.operations, claims.pool):
            if _FIELD_SEPARATOR in field:
                raise TokenError(f"claim field may not contain {_FIELD_SEPARATOR!r}: {field!r}")
        return _FIELD_SEPARATOR.join(
            [
                claims.video_id,
                claims.client_address,
                claims.operations,
                claims.pool,
                f"{claims.expires_at:.3f}",
            ]
        )

    # -- verifying -----------------------------------------------------------

    def verify(
        self,
        token: str,
        now: float,
        video_id: str,
        pool: str,
        operation: str = "play",
    ) -> TokenClaims:
        """Validate ``token``; returns its claims or raises TokenError."""
        claims, mac = self._decode(token)
        expected = self._mac(self._payload(claims))
        # compare_digest raises TypeError on a non-ASCII str; such a MAC
        # cannot be a hex digest, so it is a mismatch like any other.
        if not mac.isascii() or not hmac.compare_digest(mac, expected):
            raise TokenError("token signature mismatch")
        if now > claims.expires_at:
            raise TokenError(f"token expired {now - claims.expires_at:.0f}s ago")
        if claims.video_id != video_id:
            raise TokenError("token is for a different video")
        if claims.pool != pool:
            raise TokenError(
                f"token issued for pool {claims.pool!r}, presented to {pool!r}"
            )
        if operation not in claims.operations.split(","):
            raise TokenError(f"operation {operation!r} not authorized")
        return claims

    @staticmethod
    def _decode(token: str) -> tuple[TokenClaims, str]:
        parts = token.split(_FIELD_SEPARATOR)
        if len(parts) != 6:
            raise TokenError("malformed token")
        video_id, client_address, operations, pool, expires, mac = parts
        try:
            expires_at = float(expires)
        except ValueError:
            raise TokenError("malformed token expiry") from None
        return TokenClaims(video_id, client_address, operations, pool, expires_at), mac
