"""The video server application: token-checked HTTP range service.

This is the server MSPlayer's data plane talks to (§3.1): it validates
the access token and stream signature the web proxy issued, slices the
requested byte range out of the (virtual) video file, and answers 206.
Bodies are *virtual* — :class:`~repro.http.messages.Response` carries
``body_size`` and the fluid link charges the bytes — so simulating an
HD stream costs no memory.

The checks are one core of typed values, ``admit`` then ``slice``: the
simulator calls it through ``serve_range``; ``__call__`` is its HTTP adapter.

Behavioural details that matter to the experiments:

* range requests are the unit of scheduling, so correctness of the
  slicing/clamping logic (RFC 7233) is what keeps the chunk ledger
  gap-free;
* expired/forged tokens and wrong-pool tokens earn 403 — MSPlayer
  re-bootstraps the path through the web proxy when it sees one;
* a draining/failed server answers 503 before dying completely, which
  exercises the source-failover path (§2 robustness).
"""

from __future__ import annotations

from collections.abc import Callable

from ..errors import ConfigError, HTTPParseError, RangeError, TokenError, VideoNotFoundError
from ..http.headers import parse_digits
from ..http.messages import Request, Response
from ..http.ranges import ByteRange, parse_range_header
from .catalog import Catalog
from .tokens import TokenMint
from .videos import VideoAsset
from .webproxy import stream_signature

#: A 206's header bytes less its content type and four numbers (one digit each here).
_PARTIAL_CONTENT_FIXED = Response.partial_content(ByteRange(0, 1), 1, "").header_wire_size() - 4


class VideoServerApp:
    """Application attached to video hosts via SimHTTPServer."""

    def __init__(
        self,
        catalog: Catalog,
        mint: TokenMint,
        clock: Callable[[], float],
        pool: str,
        signature_secret: bytes,
        name: str = "videoserver",
    ) -> None:
        self.catalog = catalog
        self.mint = mint
        self.clock = clock
        #: The network pool this server belongs to; tokens are pool-bound.
        self.pool = pool
        self.signature_secret = signature_secret
        self.name = name
        #: Draining: answer 503 to new requests without dropping connections.
        self.draining = False
        self.range_requests = 0
        self.bytes_requested = 0

    def admit(self, video_id: str, itag: int | None, token: str, sig: str) -> VideoAsset | Response:
        """The checks before the range, in order: draining 503, asset 404/400
        (``itag`` None: unparseable), token 401/403, signature 403."""
        if self.draining:
            return Response.error(503, f"{self.name} is draining")
        if itag is None:
            return Response.error(400, "missing or malformed itag")
        try:
            asset = self.catalog.asset(video_id, itag)
        except VideoNotFoundError:
            return Response.error(404, f"unknown video {video_id}")
        except ConfigError:  # the video does not offer this itag
            return Response.error(400, f"video {video_id} has no itag {itag}")
        if not token:
            return Response.error(401, "missing token")
        try:
            self.mint.verify(token, self.clock(), video_id, pool=self.pool)
        except TokenError as exc:
            return Response.error(403, f"token rejected: {exc}")
        if sig != stream_signature(video_id, itag, self.signature_secret):
            return Response.error(403, "signature rejected")
        return asset

    def slice(self, asset: VideoAsset, byte_range: ByteRange) -> ByteRange | Response:
        """Clamp to the file (416 if nothing is left) and count; the range served."""
        try:
            byte_range = byte_range.clamp(asset.size_bytes)
        except RangeError as exc:
            return Response.error(416, str(exc))
        self.range_requests += 1
        self.bytes_requested += byte_range.length
        return byte_range

    def serve_range(
        self, video_id: str, itag: int, token: str, sig: str, byte_range: ByteRange
    ) -> tuple[int, int, int]:
        """The simulator's call: ``(status, body_size, header_wire_size)``
        of the reply ``__call__`` renders for the same request."""
        asset = self.admit(video_id, itag, token, sig)
        if isinstance(asset, Response):
            return asset.status, asset.body_size, asset.header_wire_size()
        served = self.slice(asset, byte_range)
        if isinstance(served, Response):
            return served.status, served.body_size, served.header_wire_size()
        content_type = f"video/{asset.format.container}"
        numbers = f"{served.start}{served.last}{asset.size_bytes}{served.length}"
        return 206, served.length, _PARTIAL_CONTENT_FIXED + len(content_type) + len(numbers)

    def __call__(self, request: Request, client_network: str) -> Response:
        """The HTTP adapter: the message parsed into the core's values."""
        if request.method != "GET":
            return Response.error(405)
        if request.path != "/videoplayback":
            return Response.error(404, f"no handler for {request.path}")
        query = request.query
        try:
            itag: int | None = parse_digits(query.get("itag", ""), "itag")
        except HTTPParseError:
            itag = None
        asset = self.admit(query.get("v", ""), itag, query.get("token", ""), query.get("sig", ""))
        if isinstance(asset, Response):
            return asset
        content_type = f"video/{asset.format.container}"
        range_header = request.headers.get("Range")
        if range_header is None:
            # Whole-file GET: what commercial players do for the big
            # pre-buffering chunk (§6).
            self.range_requests += 1
            self.bytes_requested += asset.size_bytes
            headers = {"Content-Type": content_type, "Accept-Ranges": "bytes"}
            return Response(200, headers, body_size=asset.size_bytes)
        try:
            served = self.slice(asset, parse_range_header(range_header, asset.size_bytes))
        except RangeError as exc:
            return Response.error(416, str(exc))
        if isinstance(served, Response):
            return served
        return Response.partial_content(served, asset.size_bytes, content_type=content_type)
