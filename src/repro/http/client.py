"""Simulated HTTP client: persistent secure connections over one interface.

This is the piece of MSPlayer's data plane that §4 describes: per
interface, open an HTTPS connection to a server, keep it alive, and
issue range requests on it.  The client charges the full cost sequence
(3WHS → TLS → per-request RTT → body transfer on the fluid link) and
returns both the parsed :class:`~repro.http.messages.Response` and the
:class:`~repro.net.tcp.TransferResult` timing record the schedulers
feed on (``fetch_range``: the same exchange, request and reply as values).

Connections are cached per server address; losing one (path break,
server failure) evicts it so the next request redials.

``connect``/``request``/``get``/``fetch_range`` are generator functions,
and each delegates to its sub-steps with ``yield from``: a whole request runs
inside the *caller's* process and schedules only the waits that model
something (handshake and request RTTs, the body flow).  A caller that
wants a request to run concurrently wraps it — ``env.process(client.get(
...))`` — and that is the only ``Process`` it costs (DESIGN.md "Request
path").
"""

from __future__ import annotations


from ..errors import HTTPStatusError, NetworkError
from ..net.env import Environment
from ..net.iface import NetworkInterface
from ..net.tcp import TCPConnection
from ..net.topology import Host, Network
from .messages import Request
from .ranges import ByteRange
from .status import status_reason


class ClientSession:
    """One established secure connection to one server."""

    def __init__(self, connection: TCPConnection, host: Host) -> None:
        self.connection = connection
        self.host = host
        #: Timing of the session establishment, for Fig. 1 style traces.
        self.connected_at: float | None = None
        self.secured_at: float | None = None

    @property
    def usable(self) -> bool:
        return self.connection.connected and not self.connection.closed and self.host.up


class SimHTTPClient:
    """HTTP client bound to one network interface (one path)."""

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
        """Generator: establish (or reuse) a secure session to ``address``.

        Drive with ``yield from``, or wrap in ``env.process`` to run
        concurrently.  A usable cached session returns at once, costing
        no kernel event under ``yield from``.
        """
        session = self._sessions.get(address)
        if session is not None and session.usable:
            return session
        started = self.env.now
        connection, host = self.network.connect(self.iface, address)
        session = ClientSession(connection, host)
        try:
            yield from connection.connect()
            session.connected_at = self.env.now
            resumed = address in self._tickets and host.tls.resumption
            yield from connection.secure_handshake(host.tls, resumed=resumed)
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
        """Generator: send ``request``; returns ``(response, timing)``.

        Drive with ``yield from``, or wrap in ``env.process`` to run
        concurrently.

        The server application attached to the host computes the
        response (and its think time); the response's *wire size* —
        headers plus body — is what rides the fluid link, so protocol
        overhead is charged faithfully.

        On any network failure the cached session is evicted before the
        exception propagates, so a retry dials fresh.
        """

        def answer(server):
            response, think = server.handle(request, client_network=self.iface.network_id)
            return response, response.wire_size(), response.body_size, think

        return (yield from self._exchange(address, answer))

    def get(self, address: str, request: Request, expect: tuple[int, ...] = (200, 206)):
        """Generator: request + status check; returns ``(response, timing)``.

        Drive with ``yield from``, or wrap in ``env.process`` to run
        concurrently.
        """
        response, timing = yield from self.request(address, request)
        if response.status not in expect:
            raise HTTPStatusError(response.status, response.reason)
        return response, timing

    def fetch_range(
        self, address: str, video_id: str, itag: int, token: str, sig: str, byte_range: ByteRange
    ):
        """Generator: ``get`` of a ``videoplayback`` range expecting 206,
        made of values (no message built); returns the timing."""
        status, timing = yield from self._exchange(
            address, lambda server: server.serve_range(video_id, itag, token, sig, byte_range)
        )
        if status != 206:
            raise HTTPStatusError(status, status_reason(status))
        return timing

    def _exchange(self, address: str, answer):
        """Generator: the one exchange; ``answer(server)`` gives ``(reply,
        wire_size, body_size, think)``.  Returns ``(reply, timing)``."""
        session = yield from self.connect(address)
        host = session.host
        if host.app is None:
            raise NetworkError(f"host {address} has no application attached")
        server = host.app
        server.begin_request()
        try:
            reply, wire_size, body_size, think = answer(server)
            timing = yield from session.connection.exchange(wire_size, server_delay=think)
        except NetworkError:
            self.disconnect(address)
            raise
        finally:
            server.end_request()
        host.bytes_served += body_size
        return reply, timing

    # -- accounting ---------------------------------------------------------------

    @property
    def open_session_count(self) -> int:
        return sum(1 for s in self._sessions.values() if s.usable)

