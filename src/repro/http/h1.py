"""Incremental, sans-IO HTTP/1.1 parser.

Feed it bytes as they arrive from *any* transport; it emits complete
messages.  The live asyncio backend (:mod:`repro.live`) uses it on both
sides of the connection; property-based tests drive it with arbitrary
re-chunkings of valid streams to guarantee that message boundaries
never depend on how the bytes were segmented — the classic source of
"works on localhost, breaks over DSL" bugs.

Scope: fixed-length bodies via ``Content-Length`` (every server in this
library sets it; ``Transfer-Encoding: chunked`` is rejected rather than
mis-parsed), single-digit-version HTTP/1.x start lines, pipelined
messages supported (leftover bytes roll into the next message).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import HTTPParseError
from .headers import Headers, parse_digits
from .messages import Request, Response

#: Header-block size limit; a defense against unbounded buffering.
MAX_HEADER_BLOCK = 64 * 1024
#: Body size limit for parsed messages (video chunks max out well below).
MAX_BODY = 64 * 1024 * 1024

_BODILESS_STATUSES = frozenset({204, 304}) | frozenset(range(100, 200))


@dataclass
class ParsedMessage:
    """A complete message lifted off the wire."""

    kind: str  # "request" | "response"
    headers: Headers
    body: bytes = b""
    # request fields
    method: str = ""
    target: str = ""
    # response fields
    status: int = 0
    reason: str = ""

    def to_request(self) -> Request:
        if self.kind != "request":
            raise HTTPParseError("not a request")
        return Request(self.method, self.target, self.headers, self.body)

    def to_response(self) -> Response:
        if self.kind != "response":
            raise HTTPParseError("not a response")
        return Response(self.status, self.headers, self.body)


@dataclass
class H1Parser:
    """Stateful incremental parser for one direction of one connection."""

    role: str  # parse "request"s (server side) or "response"s (client side)
    #: When parsing responses: statuses of requests whose responses have
    #: no body by construction (HEAD).  Caller pushes ``True`` per HEAD
    #: request sent, in order.
    _head_queue: list[bool] = field(default_factory=list)
    _buffer: bytearray = field(default_factory=bytearray)
    _pending: ParsedMessage | None = None
    _body_remaining: int = 0

    def __post_init__(self) -> None:
        if self.role not in ("request", "response"):
            raise HTTPParseError(f"role must be 'request' or 'response', got {self.role!r}")

    def expect_head_response(self) -> None:
        """Record that the next response answers a HEAD (bodiless)."""
        self._head_queue.append(True)

    def expect_normal_response(self) -> None:
        self._head_queue.append(False)

    # -- feeding ---------------------------------------------------------------

    def feed(self, data: bytes) -> list[ParsedMessage]:
        """Consume bytes; return every message completed by them."""
        self._buffer.extend(data)
        messages: list[ParsedMessage] = []
        while True:
            message = self._try_extract()
            if message is None:
                break
            messages.append(message)
        return messages

    # -- internals ---------------------------------------------------------------

    def _try_extract(self) -> ParsedMessage | None:
        if self._pending is None:
            if not self._parse_header_block():
                return None
        assert self._pending is not None
        take = min(self._body_remaining, len(self._buffer))
        if take:
            self._pending.body += bytes(self._buffer[:take])
            del self._buffer[:take]
            self._body_remaining -= take
        if self._body_remaining > 0:
            return None
        message, self._pending = self._pending, None
        return message

    def _parse_header_block(self) -> bool:
        end = self._buffer.find(b"\r\n\r\n")
        if end == -1:
            if len(self._buffer) > MAX_HEADER_BLOCK:
                raise HTTPParseError("header block exceeds limit")
            return False
        block = bytes(self._buffer[:end])
        del self._buffer[: end + 4]
        lines = block.split(b"\r\n")
        start_line = lines[0].decode("latin-1")
        headers = self._parse_headers(lines[1:])

        if headers.get("transfer-encoding"):
            raise HTTPParseError("Transfer-Encoding not supported by this parser")

        if self.role == "request":
            message = self._parse_request_line(start_line, headers)
            length = headers.get_int("content-length") or 0
        else:
            message = self._parse_status_line(start_line, headers)
            is_head = self._head_queue.pop(0) if self._head_queue else False
            if message.status in _BODILESS_STATUSES or is_head:
                length = 0
            else:
                declared = headers.get_int("content-length")
                if declared is None:
                    raise HTTPParseError(
                        "response without Content-Length (close-delimited bodies unsupported)"
                    )
                length = declared
        if length < 0:
            raise HTTPParseError(f"negative Content-Length {length}")
        if length > MAX_BODY:
            raise HTTPParseError(f"body of {length} bytes exceeds limit")
        self._pending = message
        self._body_remaining = length
        return True

    @staticmethod
    def _parse_headers(lines: list[bytes]) -> Headers:
        headers = Headers()
        for raw in lines:
            if not raw:
                continue
            if raw[0:1] in (b" ", b"\t"):
                raise HTTPParseError("obsolete header line folding rejected")
            name, sep, value = raw.decode("latin-1").partition(":")
            if not sep:
                raise HTTPParseError(f"malformed header line {raw!r}")
            headers.add(name.strip(), value.strip())
        return headers

    @staticmethod
    def _parse_request_line(line: str, headers: Headers) -> ParsedMessage:
        parts = line.split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise HTTPParseError(f"malformed request line {line!r}")
        method, target, _version = parts
        return ParsedMessage(kind="request", headers=headers, method=method, target=target)

    @staticmethod
    def _parse_status_line(line: str, headers: Headers) -> ParsedMessage:
        parts = line.split(" ", 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
            raise HTTPParseError(f"malformed status line {line!r}")
        status = parse_digits(parts[1], "status")
        reason = parts[2] if len(parts) == 3 else ""
        return ParsedMessage(kind="response", headers=headers, status=status, reason=reason)
