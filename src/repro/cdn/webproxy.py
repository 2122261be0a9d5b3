"""The web proxy server application (§3.1, §4).

Responsibilities, exactly as the paper sequences them:

1. authenticate the request (OAuth 2.0 stub: a bearer developer key,
   §4's "authenticates the user (player type and/or the user account)");
2. resolve which network the client is calling from (the simulator
   hands us ``client_network`` — the public-address lookup in real life);
3. choose suitable video servers in that network (server selection [3]);
4. mint an access token valid for an hour, bound to the client and pool;
5. return video info as JSON — formats, sizes, title, author, hosts,
   token, and either a plain or an *enciphered* signature (footnote 1);
6. serve ``/player.js``, the decoder page copyrighted playback needs.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable
from functools import lru_cache

from ..errors import ServerUnavailableError, VideoNotFoundError
from ..http.messages import Request, Response
from .catalog import Catalog
from .jsonapi import build_video_info
from .signature import SignatureCipher
from .tokens import TokenMint
from .videos import VideoAsset


@lru_cache(maxsize=512)
def stream_signature(video_id: str, itag: int, secret: bytes) -> str:
    """The plain per-stream signature the video server will re-derive.

    Pure in its arguments and re-derived by the video server on every
    range request, hence memoised; the bound caps what distinct
    (hostile) video ids can pin.
    """
    material = f"{video_id}:{itag}".encode("utf-8") + secret
    return hashlib.sha1(material).hexdigest()


class WebProxyApp:
    """Application attached to proxy hosts via SimHTTPServer."""

    def __init__(
        self,
        catalog: Catalog,
        mint: TokenMint,
        select_hosts: Callable[[str], list[str]],
        clock: Callable[[], float],
        cipher: SignatureCipher,
        signature_secret: bytes,
        api_key: str | None = None,
    ) -> None:
        self.catalog = catalog
        self.mint = mint
        self.select_hosts = select_hosts
        self.clock = clock
        self.cipher = cipher
        self.signature_secret = signature_secret
        #: When set, requests must carry ``Authorization: Bearer <key>``.
        self.api_key = api_key
        self.info_requests = 0
        self.decoder_requests = 0

    # -- entry point -------------------------------------------------------------

    def __call__(self, request: Request, client_network: str) -> Response:
        if request.method != "GET":
            return Response.error(405)
        if request.path in ("/videoinfo", "/watch"):
            return self._video_info(request, client_network)
        if request.path == "/player.js":
            return self._decoder_page()
        return Response.error(404, f"no handler for {request.path}")

    # -- handlers ------------------------------------------------------------------

    def _video_info(self, request: Request, client_network: str) -> Response:
        if not self._authorized(request):
            return Response.error(401, "missing or invalid developer key")
        video_id = request.query.get("v", "")
        if not video_id:
            return Response.error(400, "missing v= parameter")
        try:
            meta = self.catalog.get(video_id)
        except VideoNotFoundError:
            return Response.error(404, f"unknown video {video_id}")
        try:
            hosts = self.select_hosts(client_network)
        except ServerUnavailableError as exc:
            return Response.error(503, str(exc))

        self.info_requests += 1
        client_address = request.headers.get("X-Client-Address", f"client.{client_network}")
        token = self.mint.issue(self.clock(), video_id, client_address, pool=client_network)
        sizes = {itag: VideoAsset(meta, itag).size_bytes for itag in meta.itags}
        signatures = {}
        for itag in meta.itags:
            plain = stream_signature(video_id, itag, self.signature_secret)
            signatures[itag] = self.cipher.encipher(plain) if meta.copyrighted else plain
        payload = build_video_info(
            meta,
            sizes=sizes,
            client_address=client_address,
            token=token,
            ttl_s=self.mint.ttl_s,
            pool=client_network,
            hosts=hosts,
            signatures=signatures,
            enciphered=meta.copyrighted,
        )
        return Response.json(payload)

    def _decoder_page(self) -> Response:
        """The player page containing the signature decoder (footnote 1).

        The decoder program is embedded as JSON; the body is padded to a
        realistic player-page size so fetching it costs an honest
        transfer, not just a round trip.
        """
        self.decoder_requests += 1
        program = self.cipher.decoder_program()
        core = json.dumps({"decoder": [[op, k] for op, k in program]}).encode("utf-8")
        padding = b"\n// " + b"minified player code " * 4
        target = self.cipher.decoder_page_size()
        body = core + padding * max((target - len(core)) // len(padding), 0)
        return Response(
            200,
            {"Content-Type": "application/javascript"},
            body=body,
        )

    # -- helpers -------------------------------------------------------------------

    def _authorized(self, request: Request) -> bool:
        if self.api_key is None:
            return True
        header = request.headers.get("Authorization", "")
        return header == f"Bearer {self.api_key}"


def parse_decoder_page(body: bytes) -> list[tuple[str, int]]:
    """Client side: extract the decoder program from ``/player.js``."""
    text = body.decode("utf-8", errors="replace")
    brace_end = text.index("}") + 1
    payload = json.loads(text[:brace_end])
    return [(str(op), int(k)) for op, k in payload["decoder"]]
