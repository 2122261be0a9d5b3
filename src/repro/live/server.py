"""Asyncio HTTP/1.1 server hosting the CDN applications on loopback.

One :class:`LiveHTTPServer` plays one emulated host (a web proxy or a
video server) on its own 127.0.0.1 port, with a :class:`PathShape`
defining the path personality clients experience.  The request loop:

1. parse requests incrementally with the shared sans-IO
   :class:`~repro.http.h1.H1Parser` (same parser the client uses);
2. sleep the path's one-way delay twice (request + first-byte legs);
3. ask the attached application (the *same*
   :class:`~repro.cdn.webproxy.WebProxyApp` /
   :class:`~repro.cdn.videoserver.VideoServerApp` objects the simulator
   uses) for the response;
4. for video responses, materialize the virtual body as deterministic
   pseudo-bytes and stream it through the token bucket.

Connections are persistent (keep-alive), matching §4.
"""

from __future__ import annotations

import asyncio
import contextlib
from collections.abc import Callable

from ..errors import HTTPParseError
from ..http.h1 import H1Parser
from ..http.messages import SUPPORTED_METHODS, Response
from .shaping import PathShape, shaped_write


def synthetic_body(size: int, seed_offset: int = 0) -> bytes:
    """Deterministic pseudo-video bytes (pattern, cheap to generate)."""
    if size <= 0:
        return b""
    pattern = bytes((i * 31 + seed_offset * 7) % 251 for i in range(251))
    repeats = size // len(pattern) + 1
    return (pattern * repeats)[:size]


class LiveHTTPServer:
    """One shaped loopback host."""

    def __init__(
        self,
        app,  # duck-typed: .handle(request, client_network) -> (Response, think)
        shape: PathShape,
        client_network: str,
        host: str = "127.0.0.1",
    ) -> None:
        self.app = app
        self.shape = shape
        self.client_network = client_network
        self.host = host
        self.port: int | None = None
        self._server: asyncio.AbstractServer | None = None
        self.connections_accepted = 0
        self.requests_served = 0

    # -- lifecycle --------------------------------------------------------------

    async def start(self) -> int:
        """Bind an ephemeral port; returns it."""
        self._server = await asyncio.start_server(self._serve, self.host, 0)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def address(self) -> str:
        if self.port is None:
            raise RuntimeError("server not started")
        return f"{self.host}:{self.port}"

    # -- per-connection loop -------------------------------------------------------

    async def _serve(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.connections_accepted += 1
        parser = H1Parser(role="request")
        bucket = self.shape.make_bucket()  # per-connection shaping
        try:
            while True:
                data = await reader.read(64 * 1024)
                if not data:
                    return
                try:
                    messages = parser.feed(data)
                except HTTPParseError:
                    writer.write(Response.error(400).encode())
                    await writer.drain()
                    return
                for message in messages:
                    await self._respond(message, writer, bucket)
                    self.requests_served += 1
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
            asyncio.CancelledError,  # server stopping mid-connection
        ):
            return
        finally:
            writer.close()
            with contextlib.suppress(  # pragma: no cover - teardown best-effort
                ConnectionResetError, BrokenPipeError, asyncio.CancelledError
            ):
                await writer.wait_closed()

    async def _respond(self, message, writer: asyncio.StreamWriter, bucket) -> None:
        # Request leg + first-byte leg of the emulated path.
        await asyncio.sleep(self.shape.one_way_delay)
        try:
            request = message.to_request()
        except HTTPParseError as exc:
            # Framed, but no request an application takes: an unsupported
            # method (405) or a target not in origin-form (400).
            status = 400 if message.method.upper() in SUPPORTED_METHODS else 405
            writer.write(Response.error(status, str(exc)).encode())
            await writer.drain()
            return
        if hasattr(self.app, "begin_request"):
            self.app.begin_request()
        try:
            if hasattr(self.app, "handle"):
                response, think = self.app.handle(request, client_network=self.client_network)
            else:
                # Bare application callable (WebProxyApp / VideoServerApp
                # style): no service-time model, the shaper is the cost.
                response, think = self.app(request, self.client_network), 0.0
        finally:
            if hasattr(self.app, "end_request"):
                self.app.end_request()
        if think > 0:
            await asyncio.sleep(think)

        # Materialize virtual (simulator-style) bodies for the real wire.
        if response.body_size and not response.body:
            response = Response(
                response.status,
                response.headers,
                body=synthetic_body(response.body_size),
            )
        payload = response.encode()
        await asyncio.sleep(self.shape.one_way_delay)
        await shaped_write(writer, payload, bucket, self.shape.write_chunk)


def make_app_adapter(handler: Callable) -> object:
    """Wrap a bare ``(request, network) -> Response`` callable so the
    server can host plain functions in tests."""

    class _Adapter:
        def handle(self, request, client_network):
            return handler(request, client_network), 0.0

    return _Adapter()
