"""Hosts and the network that wires clients to them.

The testbed of §5 is tiny but real: two web-proxy hosts and two video
hosts, one pair reachable in the WiFi network's subnet and one in the
LTE carrier's, plus the client's two interfaces.  :class:`Network` is
the registry that makes that wiring explicit:

* a :class:`Host` is a server machine with an address, a TLS compute
  profile, a per-connection extra propagation delay (its "distance"),
  and an attached application (installed by the CDN layer);
* ``Network.connect(iface, address)`` opens a TCP connection *bound to
  the given interface* — the per-interface routing of §4 — whose
  latency is the interface's access latency plus the host's distance.

Host up/down state models server failures for the robustness scenarios;
connecting to a down host raises immediately (connection refused), and
existing connections to it are reset.
"""

from __future__ import annotations


from ..errors import ConfigError, RoutingError, ServerUnavailableError
from .env import Environment
from .iface import NetworkInterface
from .latency import LatencyProcess
from .tcp import TCPConnection
from .tls import TLSParams


class _PathLatency(LatencyProcess):
    """Access-link latency plus fixed host distance (one-way)."""

    __slots__ = ("access", "extra")

    def __init__(self, access: LatencyProcess, extra_one_way: float) -> None:
        self.access = access
        self.extra = float(extra_one_way)
        self.base_delay = access.base_delay + self.extra

    def sample(self) -> float:
        return self.access.sample() + self.extra


class Host:
    """A server machine addressable in one or more networks."""

    __slots__ = (
        "address",
        "tls",
        "extra_one_way_delay",
        "network_id",
        "app",
        "up",
        "_connections",
        "bytes_served",
    )

    def __init__(
        self,
        address: str,
        tls: TLSParams | None = None,
        extra_one_way_delay: float = 0.0,
        network_id: str | None = None,
    ) -> None:
        if extra_one_way_delay < 0:
            raise ConfigError("extra_one_way_delay must be non-negative")
        self.address = address
        self.tls = tls or TLSParams()
        self.extra_one_way_delay = extra_one_way_delay
        #: The network this host "lives" in (server pools per network, §2).
        self.network_id = network_id
        #: Application attached by the service layer (HTTP server glue).
        self.app = None
        self.up = True
        #: Connections currently open to this host (reset on failure).
        self._connections: list[TCPConnection] = []
        #: Total bytes served, for load-balance accounting (EXP-X2).
        self.bytes_served = 0

    def fail(self) -> None:
        """Crash the host: refuse new connections, reset existing ones."""
        self.up = False
        for connection in self._connections:
            connection.reset(ServerUnavailableError(f"{self.address} failed"))
        self._connections.clear()

    def recover(self) -> None:
        self.up = True

    def _track(self, connection: TCPConnection) -> None:
        self._connections.append(connection)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else "DOWN"
        return f"<Host {self.address} {state} net={self.network_id}>"


class Network:
    """Registry of hosts plus the client-side connection factory."""

    __slots__ = ("env", "_hosts")

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._hosts: dict[str, Host] = {}

    def add_host(self, host: Host) -> Host:
        if host.address in self._hosts:
            raise ConfigError(f"duplicate host address {host.address!r}")
        self._hosts[host.address] = host
        return host

    def host(self, address: str) -> Host:
        try:
            return self._hosts[address]
        except KeyError:
            raise RoutingError(f"no route to host {address!r}") from None

    def hosts_in_network(self, network_id: str) -> list[Host]:
        return [h for h in self._hosts.values() if h.network_id == network_id]

    def connect(self, iface: NetworkInterface, address: str) -> tuple[TCPConnection, Host]:
        """Open a TCP connection to ``address``, bound to ``iface``.

        Returns the (unconnected) connection and the host; the caller
        drives the handshake generators.  Refused immediately if the host
        is down — the trigger for MSPlayer's source failover.
        """
        host = self.host(address)
        if not host.up:
            raise ServerUnavailableError(f"connection refused by {address}")
        latency = _PathLatency(iface.latency, host.extra_one_way_delay)
        connection = iface.open_connection(path_latency=latency)
        host._track(connection)
        return connection, host
