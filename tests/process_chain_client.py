"""Reference oracle: the HTTP client as it was before the request path went flat.

``ProcessChainClient`` is the product's old ``SimHTTPClient`` kept
verbatim — every sub-step (``connect`` → ``connection.connect`` /
``secure_handshake``, ``request`` → ``connect`` / ``exchange``, ``get``
→ ``request``) is spawned as its own kernel ``Process`` and waited on
right there, which buys one ``Initialize`` event and one completion
event per step.  The flattened :class:`repro.http.client.SimHTTPClient`
delegates with ``yield from`` instead and must agree with this one bit
for bit on everything a caller can observe (the ``TransferResult``
triple, ``env.now``, ``handshake_time``, server and connection
accounting, the exception raised and what it carries); only the number
of kernel events may differ.  ``ClientSession`` and everything below
the client (``TCPConnection``, ``Link``, the server glue) are shared
with the product: they did not change.
"""

from __future__ import annotations

from repro.errors import HTTPStatusError, NetworkError
from repro.http.client import ClientSession
from repro.http.messages import Request
from repro.net.env import Environment
from repro.net.iface import NetworkInterface
from repro.net.topology import Network


class ProcessChainClient:
    """The pre-flatten client, verbatim: one Process per sub-step."""

    def __init__(self, env: Environment, network: Network, iface: NetworkInterface) -> None:
        self.env = env
        self.network = network
        self.iface = iface
        self._sessions: dict[str, ClientSession] = {}
        #: Wall-clock spent inside TLS+TCP handshakes, for overhead reports.
        self.handshake_time = 0.0
        #: Whether we hold a resumable TLS session ticket per server.
        self._tickets: set[str] = set()

    # -- session management -----------------------------------------------------

    def connect(self, address: str):
        """Process: establish (or reuse) a secure session to ``address``."""
        session = self._sessions.get(address)
        if session is not None and session.usable:
            return session
        started = self.env.now
        connection, host = self.network.connect(self.iface, address)
        session = ClientSession(connection, host)
        try:
            yield self.env.process(connection.connect())
            session.connected_at = self.env.now
            resumed = address in self._tickets and host.tls.resumption
            yield self.env.process(connection.secure_handshake(host.tls, resumed=resumed))
            session.secured_at = self.env.now
        except NetworkError:
            connection.close()
            raise
        self._tickets.add(address)
        self.handshake_time += self.env.now - started
        self._sessions[address] = session
        return session

    def disconnect(self, address: str) -> None:
        session = self._sessions.pop(address, None)
        if session is not None:
            session.connection.close()

    def disconnect_all(self) -> None:
        for address in list(self._sessions):
            self.disconnect(address)

    # -- requests -------------------------------------------------------------

    def request(self, address: str, request: Request):
        """Process: send ``request``; returns ``(response, timing)``."""
        session = yield self.env.process(self.connect(address))
        host = session.host
        if host.app is None:
            raise NetworkError(f"host {address} has no application attached")
        app = host.app
        app.begin_request()
        try:
            response, think_time = app.handle(request, client_network=self.iface.network_id)
            timing = yield self.env.process(
                session.connection.exchange(response.wire_size(), server_delay=think_time)
            )
        except NetworkError:
            self.disconnect(address)
            raise
        finally:
            app.end_request()
        host.bytes_served += response.body_size
        return response, timing

    def get(self, address: str, request: Request, expect: tuple[int, ...] = (200, 206)):
        """Process: request + status check; returns ``(response, timing)``."""
        response, timing = yield self.env.process(self.request(address, request))
        if response.status not in expect:
            raise HTTPStatusError(response.status, response.reason)
        return response, timing

    # -- accounting ---------------------------------------------------------------

    @property
    def open_session_count(self) -> int:
        return sum(1 for s in self._sessions.values() if s.usable)
