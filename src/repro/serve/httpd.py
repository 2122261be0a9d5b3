"""Stdlib HTTP front end for the broker (``repro serve``).

JSON over ``http.server`` — zero dependencies, which is what lets the
tier-1 tests and the CI e2e job run a real broker + workers over real
sockets on any checkout.  It is the service's only front end.

Endpoints (all JSON; errors are ``{"error": msg}`` with a 4xx code —
a malformed query, header or body included, never a dropped
connection):

====== ====================================== =========================
POST   /api/v1/studies                         submit a study
GET    /api/v1/studies/<job>                   status (``?wait=S&done=N``
                                               long-polls until the
                                               finished count differs)
GET    /api/v1/studies/<job>/cells/<i>/result  cell archive (npz base64)
POST   /api/v1/lease                           ``{"worker": id, "wait": S}``
                                               → lease, or JSON ``null``
                                               after ``S`` idle seconds
POST   /api/v1/heartbeat                       ``{"lease_id"}`` → ok flag
POST   /api/v1/complete                        commit a cell archive
POST   /api/v1/fail                            report a failed lease
GET    /api/v1/health                          liveness probe
====== ====================================== =========================

Both long-polls park inside the broker (:meth:`Broker.lease` and
:meth:`Broker.status` take the ``wait``), so a request returns the
moment its answer exists: the handler thread sleeps on the broker's
condition, never on a timer.

Result archives ride as ``{"manifest_text": str, "npz_b64": base64}``
— text-safe encodings of the exact bytes, so byte-identity survives
the wire.
"""

from __future__ import annotations

import base64
import json
import math
import re
import sys
import threading
from collections.abc import Callable
from functools import partial
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit
from typing import Any

from ..errors import ConfigError, ReproError
from ..http.h1 import MAX_BODY
from ..http.headers import parse_digits
from .broker import Broker

__all__ = ["BrokerServer", "create_server", "run_server"]

_STATUS = re.compile(r"^/api/v1/studies/([^/]+)$")
_RESULT = re.compile(r"^/api/v1/studies/([^/]+)/cells/([0-9]+)/result$")

#: The longest a long-poll may hold a connection.
_MAX_WAIT = 30.0

_b64decode = partial(base64.b64decode, validate=True)


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
    except (TypeError, ValueError):  # binascii.Error is a ValueError
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

    daemon_threads = True

    def __init__(self, address: tuple[str, int], broker: Broker) -> None:
        super().__init__(address, _Handler)
        self.broker = broker

    def handle_error(self, request: Any, client_address: Any) -> None:
        # A client gone before its reply (a worker killed while its lease
        # was parked) is not a server fault: its lease simply expires.
        if isinstance(sys.exc_info()[1], ConnectionError):
            return
        super().handle_error(request, client_address)


class _Handler(BaseHTTPRequestHandler):
    server: BrokerServer

    # One request per connection: keeps the worker/client side trivially
    # leak-free (urllib closes after every call anyway).
    protocol_version = "HTTP/1.0"

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # the broker's own log carries the queue transitions

    # -- plumbing -----------------------------------------------------------

    def _send_json(self, code: int, payload: Any) -> None:
        body = json.dumps(payload).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict[str, Any]:
        # Surrounding whitespace is the header's optional padding, as in h1.
        length = _index((self.headers.get("Content-Length") or "0").strip(), "Content-Length")
        if length > MAX_BODY:  # refused before reading: read() would allocate it
            raise ConfigError(f"Content-Length {length} exceeds the {MAX_BODY}-byte limit")
        raw = self.rfile.read(length) if length else b""
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

    # -- routes -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server's naming
        try:
            url = urlsplit(self.path)
            if url.path == "/api/v1/health":
                self._send_json(200, {"ok": True})
                return
            match = _STATUS.match(url.path)
            if match:
                self._send_json(200, self._status(match.group(1), url.query))
                return
            match = _RESULT.match(url.path)
            if match:
                cell = _index(match.group(2), "cell")
                manifest, npz = self.server.broker.result(match.group(1), cell)
                self._send_json(
                    200,
                    {
                        "manifest_text": manifest,
                        "npz_b64": base64.b64encode(npz).decode(),
                    },
                )
                return
            self._send_json(404, {"error": f"unknown path {url.path!r}"})
        except ReproError as exc:
            self._send_json(400, {"error": str(exc)})

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

    def do_POST(self) -> None:  # noqa: N802 - http.server's naming
        try:
            body = self._read_json()
            broker = self.server.broker
            if self.path == "/api/v1/studies":
                self._send_json(200, broker.submit(body))
            elif self.path == "/api/v1/lease":
                lease = broker.lease(
                    str(body.get("worker") or "?"), wait=_parse_wait(body.get("wait", 0))
                )
                self._send_json(200, lease)
            elif self.path == "/api/v1/heartbeat":
                ok = broker.heartbeat(str(body.get("lease_id") or ""))
                self._send_json(200, {"ok": ok})
            elif self.path == "/api/v1/complete":
                self._send_json(
                    200,
                    broker.complete(
                        str(body.get("job_id") or ""),
                        _index(body.get("cell") or 0, "cell"),
                        str(body.get("manifest_text") or ""),
                        _parse(_b64decode, str(body.get("npz_b64") or ""), "npz_b64"),
                        lease_id=body.get("lease_id"),
                        worker=body.get("worker"),
                    ),
                )
            elif self.path == "/api/v1/fail":
                self._send_json(
                    200,
                    broker.fail(
                        str(body.get("lease_id") or ""),
                        str(body.get("error") or "worker-reported failure"),
                    ),
                )
            else:
                self._send_json(404, {"error": f"unknown path {self.path!r}"})
        except ReproError as exc:
            self._send_json(400, {"error": str(exc)})


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
