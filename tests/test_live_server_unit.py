"""Live HTTP server units: one server, raw socket client."""

import asyncio

import pytest

from repro.cdn.catalog import Catalog
from repro.cdn.tokens import TokenMint
from repro.cdn.videos import VideoMeta
from repro.cdn.videoserver import VideoServerApp
from repro.cdn.webproxy import stream_signature
from repro.http.h1 import H1Parser
from repro.http.messages import Request, Response
from repro.http.ranges import ByteRange
from repro.live.server import LiveHTTPServer, make_app_adapter
from repro.live.shaping import PathShape


def run(coroutine):
    return asyncio.run(coroutine)


def echo_app(request: Request, client_network: str) -> Response:
    if request.path == "/echo":
        return Response(200, body=f"{request.query.get('m', '')}@{client_network}".encode())
    if request.path == "/virtual":
        return Response(200, body_size=10_000)  # simulator-style body
    return Response.error(404)


async def one_server():
    shape = PathShape(name="test", rate=5_000_000.0, one_way_delay=0.001)
    server = LiveHTTPServer(make_app_adapter(echo_app), shape, client_network="test-net")
    await server.start()
    return server


def video_app():
    """A one-video server app, an honest token for it, and the playback
    target for a presented token."""
    catalog = Catalog()
    catalog.add(
        VideoMeta(video_id="plainVIDEO1", title="t", author="a", duration_s=60.0, itags=(22,))
    )
    mint = TokenMint(secret=b"live-secret")
    app = VideoServerApp(catalog, mint, clock=lambda: 10.0, pool="test-net", signature_secret=b"s")
    token = mint.issue(0.0, "plainVIDEO1", "c", pool="test-net")
    signature = stream_signature("plainVIDEO1", 22, b"s")

    def target(presented: str) -> str:
        return f"/videoplayback?v=plainVIDEO1&itag=22&token={presented}&sig={signature}"

    return app, token, target


async def video_server(app) -> LiveHTTPServer:
    shape = PathShape(name="test", rate=5_000_000.0, one_way_delay=0.001)
    server = LiveHTTPServer(app, shape, client_network="test-net")
    await server.start()
    return server


async def roundtrip(server: LiveHTTPServer, request: Request) -> Response:
    reader, writer = await asyncio.open_connection(server.host, server.port)
    try:
        writer.write(request.encode())
        await writer.drain()
        parser = H1Parser(role="response")
        while True:
            data = await reader.read(65536)
            assert data, "connection closed before response completed"
            messages = parser.feed(data)
            if messages:
                return messages[0].to_response()
    finally:
        writer.close()


class TestLiveHTTPServer:
    def test_echo_roundtrip(self):
        async def main():
            server = await one_server()
            try:
                response = await roundtrip(
                    server, Request.get("/echo?m=hello", host=server.address)
                )
            finally:
                await server.stop()
            return response

        response = run(main())
        assert response.status == 200
        assert response.body == b"hello@test-net"

    def test_virtual_body_materialized(self):
        async def main():
            server = await one_server()
            try:
                return await roundtrip(
                    server, Request.get("/virtual", host=server.address)
                )
            finally:
                await server.stop()

        response = run(main())
        assert len(response.body) == 10_000

    def test_persistent_connection_two_requests(self):
        async def main():
            server = await one_server()
            try:
                reader, writer = await asyncio.open_connection(server.host, server.port)
                parser = H1Parser(role="response")
                bodies = []
                for message in ("a", "b"):
                    writer.write(
                        Request.get(f"/echo?m={message}", host=server.address).encode()
                    )
                    await writer.drain()
                    while True:
                        data = await reader.read(65536)
                        messages = parser.feed(data)
                        if messages:
                            bodies.append(messages[0].body)
                            break
                writer.close()
                return bodies, server.requests_served
            finally:
                await server.stop()

        bodies, served = run(main())
        assert bodies == [b"a@test-net", b"b@test-net"]
        assert served == 2

    def test_malformed_request_gets_400(self):
        async def main():
            server = await one_server()
            try:
                reader, writer = await asyncio.open_connection(server.host, server.port)
                writer.write(b"COMPLETE GARBAGE\r\n\r\n")
                await writer.drain()
                data = await reader.read(65536)
                writer.close()
                return data
            finally:
                await server.stop()

        data = run(main())
        assert b"400" in data.split(b"\r\n")[0]

    @pytest.mark.parametrize(
        "raw, status",
        [
            (b"DELETE / HTTP/1.1\r\nHost: x\r\n\r\n", 405),  # unsupported method
            (b"GET http://x/ HTTP/1.1\r\nHost: x\r\n\r\n", 400),  # absolute-form target
        ],
        ids=["unsupported-method", "absolute-form-target"],
    )
    def test_unbuildable_request_gets_a_reply_and_keeps_the_connection(self, raw, status):
        # Well framed, so the parser accepts it, but no Request can be
        # built from it: the handler used to die there without a reply.
        async def main():
            server = await one_server()
            try:
                reader, writer = await asyncio.open_connection(server.host, server.port)
                parser = H1Parser(role="response")
                replies = []
                for payload in (raw, Request.get("/echo?m=after", host="x").encode()):
                    writer.write(payload)
                    await writer.drain()
                    messages = []
                    while not messages:
                        data = await reader.read(65536)
                        assert data, "connection closed without a reply"
                        messages = parser.feed(data)
                    replies.append(messages[0].to_response())
                writer.close()
                return replies
            finally:
                await server.stop()

        refused, after = run(main())
        assert refused.status == status
        assert after.status == 200 and after.body == b"after@test-net"

    def test_non_ascii_token_mac_gets_403_not_a_dead_connection(self):
        # hmac.compare_digest raised TypeError on the non-ASCII MAC, which
        # VideoServerApp does not catch: the handler died without a reply.
        app, token, target = video_app()

        async def main():
            server = await video_server(app)
            try:
                forged = await roundtrip(
                    server,
                    Request.get(
                        target(token[:-1] + "é"), host=server.address, byte_range=ByteRange(0, 64)
                    ),
                )
                honest = await roundtrip(
                    server,
                    Request.get(target(token), host=server.address, byte_range=ByteRange(0, 64)),
                )
            finally:
                await server.stop()
            return forged, honest

        forged, honest = run(main())
        assert forged.status == 403
        assert b"token rejected" in forged.body
        assert honest.status == 206 and len(honest.body) == 64

    def test_over_long_range_number_gets_416_not_a_dead_connection(self):
        # int() raised ValueError past 4300 digits, which VideoServerApp
        # did not catch: the handler died without a reply.
        app, token, target = video_app()

        async def main():
            server = await video_server(app)
            try:
                over_long = "bytes=" + "1" * 5000 + "-"
                return await roundtrip(
                    server, Request.get(target(token), host=server.address, Range=over_long)
                )
            finally:
                await server.stop()

        assert run(main()).status == 416

    def test_address_requires_start(self):
        shape = PathShape(name="t", rate=1e6, one_way_delay=0.0)
        server = LiveHTTPServer(make_app_adapter(echo_app), shape, client_network="n")
        with pytest.raises(RuntimeError):
            _ = server.address

    def test_shaping_slows_transfer(self):
        async def timed_fetch(rate):
            shape = PathShape(name="t", rate=rate, one_way_delay=0.0, burst=8 * 1024)
            server = LiveHTTPServer(
                make_app_adapter(echo_app), shape, client_network="n"
            )
            await server.start()
            loop = asyncio.get_running_loop()
            try:
                start = loop.time()
                await roundtrip(server, Request.get("/virtual", host=server.address))
                return loop.time() - start
            finally:
                await server.stop()

        async def main():
            slow = await timed_fetch(20_000.0)  # 10 kB at 20 kB/s ≈ 0.4+ s
            fast = await timed_fetch(5_000_000.0)
            return slow, fast

        slow, fast = run(main())
        assert slow > fast * 2
        assert slow > 0.05
