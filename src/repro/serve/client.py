"""The broker's HTTP client (``http.client``, stdlib-only).

One class, one method per endpoint, mirroring the :class:`~repro.serve.
broker.Broker` call surface exactly — ``run_worker`` and the tests
duck-type between a ``BrokerClient`` (over HTTP) and a ``Broker``
(in-process) because the signatures match.  Transport failures and
broker-side rejections both surface as :class:`~repro.errors.
ServiceError` with the broker's one-line message attached.

Each thread that calls the client keeps one connection open to the
broker, so a request costs one round trip, not a handshake and a round
trip.  An idle connection the broker has closed is noticed before the
next request is written (a zero-timeout poll reads its EOF) and
replaced; that is the only reconnect.  A request that was written is
never sent again: its answer may be lost, but the broker may have acted
on it (a lease whose reply is lost expires and requeues).
"""

from __future__ import annotations

import http.client
import json
import select
import threading
from collections.abc import Mapping
from typing import Any
from urllib.parse import urlencode, urlsplit

from ..errors import ConfigError, ServiceError
from .cells import pack_frame, unpack_frame

__all__ = ["BrokerClient"]


def _dropped(connection: http.client.HTTPConnection) -> bool:
    """Whether an idle connection's socket is readable: the broker has
    closed it (EOF) or sent what no request asked for."""
    poller = select.poll()
    poller.register(connection.sock, select.POLLIN)
    return bool(poller.poll(0))


class BrokerClient:
    """Talks to one broker URL (e.g. ``http://127.0.0.1:8742``)."""

    def __init__(self, url: str, timeout: float = 60.0) -> None:
        # Written so NaN fails too; socket timeouts end at the longest
        # wait a thread can make.
        if not 0 < timeout <= threading.TIMEOUT_MAX:
            raise ConfigError(
                f"timeout must be > 0 and <= {threading.TIMEOUT_MAX:.0f} s, got {timeout}"
            )
        parts = urlsplit(url)
        try:
            port = parts.port
        except ValueError:  # a port that is not a number below 65536
            port = -1
        if parts.scheme != "http" or not parts.hostname or port == -1:
            raise ConfigError(f"broker URL must be http://host[:port], got {url!r}")
        self.url = url.rstrip("/")
        self.timeout = float(timeout)
        self._address = (parts.hostname, port)
        self._prefix = parts.path.rstrip("/")
        self._local = threading.local()
        self._connections: set[http.client.HTTPConnection] = set()
        self._lock = threading.Lock()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BrokerClient({self.url!r})"

    def __enter__(self) -> BrokerClient:
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    def close(self) -> None:
        """Close every thread's connection; a later call reconnects."""
        with self._lock:
            connections, self._connections = self._connections, set()
            self._local = threading.local()
        for connection in connections:
            connection.close()

    def release(self) -> None:
        """Close the calling thread's connection (a thread about to end
        calls this, so its socket does not outlive it)."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            del self._local.connection
            with self._lock:
                self._connections.discard(connection)
            connection.close()

    def _connection(self, timeout: float) -> http.client.HTTPConnection:
        """The calling thread's connection, ready for a request."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            host, port = self._address
            connection = http.client.HTTPConnection(host, port, timeout=timeout)
            with self._lock:
                self._connections.add(connection)
            self._local.connection = connection
        elif connection.sock is not None:
            if _dropped(connection):
                connection.close()  # the next request connects afresh
            else:
                connection.sock.settimeout(timeout)
        connection.timeout = timeout
        return connection

    def _request(
        self,
        method: str,
        path: str,
        body: Mapping[str, Any] | bytes | None = None,
        timeout: float | None = None,
    ) -> Any:
        data = None
        headers = {"Accept": "application/json"}
        if isinstance(body, bytes):
            data = body
            headers["Content-Type"] = "application/octet-stream"
        elif body is not None:
            data = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        # A long-poll adds its wait, which may pass what a socket takes.
        timeout = min(self.timeout if timeout is None else timeout, threading.TIMEOUT_MAX)
        connection = self._connection(timeout)
        try:
            connection.request(method, self._prefix + path, body=data, headers=headers)
            response = connection.getresponse()
            payload = response.read()
        except (http.client.HTTPException, OSError) as exc:
            # Refused, dropped or timed out: never re-sent, since the
            # broker may have acted on it.
            connection.close()
            raise ServiceError(
                f"cannot reach broker at {self.url}: {type(exc).__name__}: {exc}"
            ) from None
        if response.status >= 400:
            try:
                detail = json.loads(payload.decode()).get("error", "")
            except (ValueError, AttributeError):
                detail = ""
            raise ServiceError(
                f"broker rejected {method} {path}: HTTP {response.status} {detail}".rstrip()
            )
        if response.getheader("Content-Type") == "application/octet-stream":
            return payload
        return json.loads(payload.decode() or "null")

    # -- the broker surface (signature-identical to Broker) -----------------

    def health(self) -> bool:
        return bool(self._request("GET", "/api/v1/health").get("ok"))

    def submit(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        return self._request("POST", "/api/v1/studies", payload)

    def status(
        self, job_id: str, wait: float | None = None, done: int | None = None
    ) -> dict[str, Any]:
        """Job status; ``wait``/``done`` long-poll for progress (the
        server holds the request until the finished count moves past
        ``done`` or ``wait`` seconds pass)."""
        query = ""
        if wait is not None:
            query = f"?wait={wait:g}&done={-1 if done is None else done}"
        timeout = None if wait is None else self.timeout + wait
        return self._request("GET", f"/api/v1/studies/{job_id}{query}", timeout=timeout)

    def lease(self, worker: str, wait: float | None = None) -> dict[str, Any] | None:
        """A cell lease or ``None``; ``wait`` parks up to that many
        seconds at the broker for a cell to arrive."""
        wait = wait or 0.0
        return self._request(
            "POST",
            "/api/v1/lease",
            {"worker": worker, "wait": wait},
            timeout=self.timeout + wait,
        )

    def heartbeat(self, lease_id: str) -> bool:
        return bool(self._request("POST", "/api/v1/heartbeat", {"lease_id": lease_id}).get("ok"))

    def complete(
        self,
        job_id: str,
        cell: int,
        manifest_text: str,
        npz_bytes: bytes,
        lease_id: str | None = None,
        worker: str | None = None,
    ) -> dict[str, Any]:
        fields = {"job_id": job_id, "cell": cell, "lease_id": lease_id, "worker": worker}
        query = urlencode({key: value for key, value in fields.items() if value is not None})
        return self._request(
            "POST", f"/api/v1/complete?{query}", pack_frame(manifest_text, npz_bytes)
        )

    def fail(self, lease_id: str, error: str) -> dict[str, Any]:
        return self._request("POST", "/api/v1/fail", {"lease_id": lease_id, "error": error})

    def result(self, job_id: str, cell: int) -> tuple[str, bytes]:
        frame = self._request("GET", f"/api/v1/studies/{job_id}/cells/{cell}/result")
        try:
            return unpack_frame(frame)
        except ConfigError as exc:
            raise ServiceError(f"broker sent a malformed archive frame: {exc}") from None
