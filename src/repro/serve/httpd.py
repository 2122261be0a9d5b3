"""Stdlib HTTP front end for the broker (``repro serve``).

HTTP/1.1 over ``http.server`` — zero dependencies, which is what lets
the tier-1 tests and the CI e2e job run a real broker + workers over
real sockets on any checkout.  It is the service's only front end.

Endpoints (JSON unless noted; errors are ``{"error": msg}`` with a 4xx
or 5xx code — a malformed query, header or body included, and the
refusals ``http.server`` makes itself (an unknown method's 501, an
over-long request or header line's 414/431, a garbled request line's
400) — never an HTML page or a dropped connection):

====== ====================================== =========================
POST   /api/v1/studies                         submit a study
GET    /api/v1/studies/<job>                   status (``?wait=S&done=N``
                                               long-polls until the
                                               finished count differs)
GET    /api/v1/studies/<job>/cells/<i>/result  cell archive frame
                                               (``application/
                                               octet-stream``)
POST   /api/v1/lease                           ``{"worker": id, "wait": S}``
                                               → lease, or JSON ``null``
                                               after ``S`` idle seconds
POST   /api/v1/heartbeat                       ``{"lease_id"}`` → ok flag
POST   /api/v1/complete                        commit a cell archive: the
                                               frame is the body, and
                                               ``job_id``, ``cell``,
                                               ``lease_id``, ``worker``
                                               ride in the query string
POST   /api/v1/fail                            report a failed lease
GET    /api/v1/health                          liveness probe
====== ====================================== =========================

Both long-polls park inside the broker (:meth:`Broker.lease` and
:meth:`Broker.status` take the ``wait``), so a request returns the
moment its answer exists: the handler thread sleeps on the broker's
condition, never on a timer.

Result archives ride as the raw frame of
:func:`~repro.serve.cells.pack_frame` — the exact bytes, so
byte-identity survives the wire; a frame that does not check out is a
400.

A connection stays open for the next request (``Content-Length``
framing) until the client closes it or it idles ``_IDLE_TIMEOUT``
seconds.  A refusal sent before the request's body was read in full
carries ``Connection: close``: the unread bytes would be taken for the
next request.  :meth:`BrokerServer.server_close` closes every open
connection and joins its handler thread, so none outlives the server.
"""

from __future__ import annotations

import json
import math
import re
import socket
import sys
import threading
from collections.abc import Callable
from contextlib import suppress
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit
from typing import Any

from ..errors import ConfigError, ReproError
from ..http.h1 import MAX_BODY
from ..http.headers import parse_digits
from .broker import Broker
from .cells import pack_frame, unpack_frame

__all__ = ["BrokerServer", "create_server", "run_server"]

_STATUS = re.compile(r"^/api/v1/studies/([^/]+)$")
_RESULT = re.compile(r"^/api/v1/studies/([^/]+)/cells/([0-9]+)/result$")

#: The longest a long-poll may hold a connection.
_MAX_WAIT = 30.0

#: Seconds an open connection may sit between requests before the
#: server closes it (read when each connection opens).
_IDLE_TIMEOUT = 60.0


def _index(raw: Any, what: str) -> int:
    """``raw`` as a count or index sqlite can bind: ASCII digits only
    (``int()`` also takes signs, ``_`` and other scripts' digits), and
    below ``2**63``, where sqlite's integers end."""
    value = parse_digits(str(raw), what)
    if value >= 2**63:
        raise ConfigError(f"{what} out of range: {str(raw)[:60]}")
    return value


def _parse(kind: Callable[[Any], Any], raw: Any, what: str) -> Any:
    """``kind(raw)``; a value it cannot convert is the client's error
    (a :class:`ConfigError`, hence a 400), not the handler's."""
    try:
        return kind(raw)
    # An int too large for a float raises OverflowError.
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"malformed {what}: {raw!r:.60}") from None


def _parse_wait(raw: Any) -> float:
    """A long-poll's ``wait``, capped at ``_MAX_WAIT``: finite and >= 0
    (a NaN deadline would never pass)."""
    wait = _parse(float, raw, "wait")
    if not 0.0 <= wait < math.inf:
        raise ConfigError(f"wait must be a finite number of seconds >= 0, got {wait!r}")
    return min(wait, _MAX_WAIT)


class BrokerServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`Broker`."""

    def __init__(self, address: tuple[str, int], broker: Broker) -> None:
        super().__init__(address, _Handler)
        self.broker = broker
        #: Each open connection and the thread that serves it.
        self._connections: dict[socket.socket, threading.Thread] = {}
        self._connections_lock = threading.Lock()

    def process_request(self, request: Any, client_address: Any) -> None:
        # Registered before its thread starts, so that server_close,
        # after shutdown, sees every connection serve_forever accepted.
        handler = threading.Thread(
            target=self.process_request_thread, args=(request, client_address), daemon=True
        )
        with self._connections_lock:
            self._connections[request] = handler
        handler.start()

    def process_request_thread(self, request: Any, client_address: Any) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            with self._connections_lock:
                del self._connections[request]

    def server_close(self) -> None:
        """Close the listener and every open connection, and join their
        handler threads: an idle one ends at once, one parked in a
        long-poll when its wait does (at most ``_MAX_WAIT``)."""
        super().server_close()
        with self._connections_lock:
            handlers = list(self._connections.values())
            for connection in self._connections:
                with suppress(OSError):  # already gone
                    connection.shutdown(socket.SHUT_RDWR)
        for handler in handlers:
            handler.join()

    def handle_error(self, request: Any, client_address: Any) -> None:
        # A client gone before its reply (a worker killed while its lease
        # was parked) is not a server fault: its lease simply expires.
        if isinstance(sys.exc_info()[1], ConnectionError):
            return
        super().handle_error(request, client_address)


class _Handler(BaseHTTPRequestHandler):
    server: BrokerServer

    # Kept-alive connections, one round trip per request.
    protocol_version = "HTTP/1.1"
    # Headers and body leave in two sends: with Nagle on, the body waits
    # out the client's delayed ACK, about 40 ms per request.
    disable_nagle_algorithm = True

    def setup(self) -> None:
        self.timeout = _IDLE_TIMEOUT
        super().setup()

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # the broker's own log carries the queue transitions

    # -- plumbing -----------------------------------------------------------

    def _send(self, code: int, body: bytes, content_type: str, *, close: bool = False) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if close:
            self.send_header("Connection", "close")  # also sets close_connection
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, code: int, payload: Any, *, close: bool = False) -> None:
        self._send(code, json.dumps(payload).encode(), "application/json", close=close)

    def send_error(self, code: int, message: str | None = None, explain: str | None = None) -> None:
        """``http.server``'s own refusals, as JSON instead of its HTML
        page: same status, ``Connection: close``, and no body on a HEAD
        reply or a 1xx/204/205/304."""
        if message is None:
            message = self.responses.get(code, ("???",))[0]
        self.send_response(code, message)
        self.send_header("Connection", "close")
        body = b""
        if code >= 200 and code not in (204, 205, 304):
            error = message if explain is None else f"{message}: {explain}"
            body = json.dumps({"error": error}).encode()
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)

    def _read_body(self) -> bytes:
        """The request's body, by ``Content-Length``; the header is
        checked before anything is read."""
        if "Transfer-Encoding" in self.headers:
            raise ConfigError("Transfer-Encoding is not supported: send a Content-Length")
        # Surrounding whitespace is the header's optional padding, as in h1.
        length = _index((self.headers.get("Content-Length") or "0").strip(), "Content-Length")
        if length > MAX_BODY:  # refused before reading: read() would allocate it
            raise ConfigError(f"Content-Length {length} exceeds the {MAX_BODY}-byte limit")
        return self.rfile.read(length) if length else b""

    def _route(self, respond: Callable[[str, str, bytes], None]) -> None:
        """Read the body, then ``respond(path, query, body)``; a refusal
        before the body was read closes the connection."""
        url = urlsplit(self.path)
        try:
            body = self._read_body()
        except ReproError as exc:
            self._send_json(400, {"error": str(exc)}, close=True)
            return
        try:
            respond(url.path, url.query, body)
        except ReproError as exc:
            self._send_json(400, {"error": str(exc)})

    # -- routes -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server's naming
        self._route(self._get)

    def do_POST(self) -> None:  # noqa: N802 - http.server's naming
        self._route(self._post)

    def _get(self, path: str, query: str, _body: bytes) -> None:
        if path == "/api/v1/health":
            self._send_json(200, {"ok": True})
            return
        match = _STATUS.match(path)
        if match:
            self._send_json(200, self._status(match.group(1), query))
            return
        match = _RESULT.match(path)
        if match:
            cell = _index(match.group(2), "cell")
            frame = pack_frame(*self.server.broker.result(match.group(1), cell))
            self._send(200, frame, "application/octet-stream")
            return
        self._send_json(404, {"error": f"unknown path {path!r}"})

    def _status(self, job_id: str, query: str) -> dict[str, Any]:
        """Job status, optionally long-polled.

        ``?wait=S&done=N`` holds the request until the finished
        (done + failed) cell count differs from ``N``, the job leaves
        ``running``, or ``S`` seconds pass — the "streamed progress"
        primitive: a client looping on it sees every transition without
        hot-polling.
        """
        params = parse_qs(query)
        wait = _parse_wait(params.get("wait", ["0"])[0])
        seen = _parse(int, params.get("done", ["-1"])[0], "done")
        return self.server.broker.status(job_id, wait=wait, done=seen)

    def _post(self, path: str, query: str, raw: bytes) -> None:
        broker = self.server.broker
        if path == "/api/v1/complete":
            # The body is the archive frame; the rest rides in the query.
            params = parse_qs(query)
            job_id = params.get("job_id", [""])[0]
            cell = _index(params.get("cell", ["0"])[0], "cell")
            self._send_json(
                200,
                broker.complete(
                    job_id,
                    cell,
                    *unpack_frame(raw),
                    lease_id=params.get("lease_id", [None])[0],
                    worker=params.get("worker", [None])[0],
                ),
            )
            return
        body = _json_object(raw)
        if path == "/api/v1/studies":
            self._send_json(200, broker.submit(body))
        elif path == "/api/v1/lease":
            lease = broker.lease(
                str(body.get("worker") or "?"), wait=_parse_wait(body.get("wait", 0))
            )
            self._send_json(200, lease)
        elif path == "/api/v1/heartbeat":
            ok = broker.heartbeat(str(body.get("lease_id") or ""))
            self._send_json(200, {"ok": ok})
        elif path == "/api/v1/fail":
            self._send_json(
                200,
                broker.fail(
                    str(body.get("lease_id") or ""),
                    str(body.get("error") or "worker-reported failure"),
                ),
            )
        else:
            self._send_json(404, {"error": f"unknown path {path!r}"})


def _json_object(raw: bytes) -> dict[str, Any]:
    """A request body as a JSON object (an empty body is ``{}``)."""
    if not raw:
        return {}
    try:
        body = json.loads(raw.decode())
    # Undecodable, not JSON, past int()'s digit limit, or nested
    # deeper than the decoder's recursion limit.
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"request body is not valid JSON: {exc}") from None
    if not isinstance(body, dict):
        raise ConfigError(f"request body must be a JSON object, got {type(body).__name__}")
    return body


def create_server(broker: Broker, host: str = "127.0.0.1", port: int = 0) -> BrokerServer:
    """Bind a :class:`BrokerServer` (port 0 = ephemeral, for tests)."""
    return BrokerServer((host, port), broker)


def run_server(
    broker: Broker,
    host: str = "127.0.0.1",
    port: int = 8742,
    *,
    ready: threading.Event | None = None,
    server_box: list[BrokerServer] | None = None,
) -> None:
    """Bind and serve until shutdown (the ``repro serve`` main loop).

    ``ready``/``server_box`` are test hooks: the bound server lands in
    the box (so a test learns the ephemeral port and can call
    ``shutdown``) before ``ready`` is set.
    """
    server = create_server(broker, host, port)
    try:
        if server_box is not None:
            server_box.append(server)
        if ready is not None:
            ready.set()
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()
