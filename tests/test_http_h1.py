"""Incremental HTTP/1.1 parser: chunking invariance is the core property."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import HTTPParseError
from repro.http.h1 import H1Parser
from repro.http.messages import Request, Response


def feed_in_pieces(parser, payload: bytes, cut_points: list[int]):
    """Feed payload split at the given sorted offsets."""
    messages = []
    previous = 0
    for cut in sorted(set(cut_points)):
        cut = min(cut, len(payload))
        messages.extend(parser.feed(payload[previous:cut]))
        previous = cut
    messages.extend(parser.feed(payload[previous:]))
    return messages


class TestRequestParsing:
    def test_simple_get(self):
        parser = H1Parser(role="request")
        raw = b"GET /videoinfo?v=abc HTTP/1.1\r\nHost: x\r\n\r\n"
        (message,) = parser.feed(raw)
        assert message.method == "GET"
        assert message.target == "/videoinfo?v=abc"
        assert message.headers["host"] == "x"

    def test_request_with_body(self):
        parser = H1Parser(role="request")
        raw = b"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"
        (message,) = parser.feed(raw)
        assert message.body == b"hello"

    def test_byte_at_a_time(self):
        raw = Request.get("/v?x=1", "h").encode()
        parser = H1Parser(role="request")
        messages = feed_in_pieces(parser, raw, list(range(len(raw))))
        assert len(messages) == 1
        assert messages[0].target == "/v?x=1"

    def test_pipelined_requests(self):
        parser = H1Parser(role="request")
        raw = Request.get("/a", "h").encode() + Request.get("/b", "h").encode()
        messages = parser.feed(raw)
        assert [m.target for m in messages] == ["/a", "/b"]

    def test_malformed_request_line(self):
        parser = H1Parser(role="request")
        with pytest.raises(HTTPParseError):
            parser.feed(b"NONSENSE\r\n\r\n")

    def test_header_folding_rejected(self):
        parser = H1Parser(role="request")
        raw = b"GET / HTTP/1.1\r\nA: 1\r\n folded\r\n\r\n"
        with pytest.raises(HTTPParseError):
            parser.feed(raw)

    def test_chunked_encoding_rejected(self):
        parser = H1Parser(role="request")
        raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        with pytest.raises(HTTPParseError):
            parser.feed(raw)

    @pytest.mark.parametrize("declared", ["+5", "1_0", "٥", "1" * 5000])
    def test_content_length_is_ascii_digits_only(self, declared):
        # int() alone framed "+5" as 5 bytes and "1_0" as 10.
        parser = H1Parser(role="request")
        raw = f"POST /x HTTP/1.1\r\nContent-Length: {declared}\r\n\r\nhelloworld"
        with pytest.raises(HTTPParseError):
            parser.feed(raw.encode("utf-8"))

    def test_oversized_header_block_rejected(self):
        parser = H1Parser(role="request")
        with pytest.raises(HTTPParseError):
            parser.feed(b"GET / HTTP/1.1\r\nX: " + b"a" * 70_000)


class TestResponseParsing:
    def test_simple_response(self):
        parser = H1Parser(role="response")
        raw = Response(200, body=b"hello world").encode()
        (message,) = parser.feed(raw)
        assert message.status == 200
        assert message.body == b"hello world"

    def test_bodiless_204(self):
        parser = H1Parser(role="response")
        raw = b"HTTP/1.1 204 No Content\r\n\r\n"
        (message,) = parser.feed(raw)
        assert message.status == 204 and message.body == b""

    def test_head_response_skips_body(self):
        parser = H1Parser(role="response")
        parser.expect_head_response()
        raw = b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n"
        (message,) = parser.feed(raw)
        assert message.body == b""

    def test_missing_content_length_rejected(self):
        parser = H1Parser(role="response")
        with pytest.raises(HTTPParseError):
            parser.feed(b"HTTP/1.1 200 OK\r\n\r\n")

    @pytest.mark.parametrize(
        "raw",
        [
            b"HTTP/1.1 2_00 OK\r\nContent-Length: 0\r\n\r\n",
            b"HTTP/1.1 +200 OK\r\nContent-Length: 0\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: +1\r\n\r\nx",
        ],
        ids=["status-underscore", "status-sign", "length-sign"],
    )
    def test_status_and_length_are_ascii_digits_only(self, raw):
        parser = H1Parser(role="response")
        with pytest.raises(HTTPParseError):
            parser.feed(raw)

    def test_to_response_roundtrip(self):
        original = Response(206, {"Content-Range": "bytes 0-9/100"}, body=b"0123456789")
        parser = H1Parser(role="response")
        (message,) = parser.feed(original.encode())
        recovered = message.to_response()
        assert recovered.status == 206
        assert recovered.body == original.body
        assert recovered.headers["content-range"] == "bytes 0-9/100"

    def test_to_request_on_response_rejected(self):
        parser = H1Parser(role="response")
        (message,) = parser.feed(Response(200, body=b"x").encode())
        with pytest.raises(HTTPParseError):
            message.to_request()


class TestChunkingInvariance:
    """The payoff property: message boundaries never depend on read sizes."""

    @settings(max_examples=60, deadline=None)
    @given(
        bodies=st.lists(st.binary(max_size=200), min_size=1, max_size=4),
        cuts=st.lists(st.integers(min_value=0, max_value=4000), max_size=12),
    )
    def test_responses_reassemble_identically(self, bodies, cuts):
        payload = b"".join(Response(200, body=body).encode() for body in bodies)
        parser = H1Parser(role="response")
        messages = feed_in_pieces(parser, payload, cuts)
        assert [m.body for m in messages] == bodies

    @settings(max_examples=40, deadline=None)
    @given(
        targets=st.lists(
            st.text(alphabet="abc123/", min_size=1, max_size=12).map(lambda s: "/" + s),
            min_size=1,
            max_size=4,
        ),
        cuts=st.lists(st.integers(min_value=0, max_value=2000), max_size=10),
    )
    def test_requests_reassemble_identically(self, targets, cuts):
        payload = b"".join(Request.get(t, "h").encode() for t in targets)
        parser = H1Parser(role="request")
        messages = feed_in_pieces(parser, payload, cuts)
        assert [m.target for m in messages] == targets

    def test_invalid_role(self):
        with pytest.raises(HTTPParseError):
            H1Parser(role="datagram")
