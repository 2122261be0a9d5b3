"""Network interfaces with per-interface routing binding.

The implementation section of the paper (§4) spells out the one OS-level
trick MSPlayer needs: *bind each socket to a specific interface's IP
address and give each interface its own routing table*, so packets for
the WiFi server leave via WiFi and packets for the LTE server leave via
LTE regardless of the default route.  :class:`NetworkInterface` is the
simulated analogue: it owns its bottleneck :class:`~repro.net.link.Link`
and latency process, and every connection opened "bound" to it rides
that link.

Interfaces also expose up/down state (driven by mobility scenarios) and
an address in their attached network, which the CDN layer uses for
server selection ("which network is this client calling from?").
"""

from __future__ import annotations

from collections.abc import Callable

from ..errors import ConfigError, LinkDownError
from .env import Environment
from .latency import LatencyProcess
from .link import Link
from .tcp import TCPConnection, TCPParams


class NetworkInterface:
    """A client NIC: WiFi or cellular, with its own link, latency, and routes."""

    __slots__ = (
        "env",
        "name",
        "kind",
        "link",
        "latency",
        "network_id",
        "address",
        "tcp_params",
        "_connection_counter",
        "status_listeners",
    )

    #: Recognised interface technologies (free-form but validated for typos).
    KNOWN_KINDS = ("wifi", "lte", "3g", "ethernet")

    def __init__(
        self,
        env: Environment,
        name: str,
        kind: str,
        link: Link,
        latency: LatencyProcess,
        network_id: str,
        address: str,
        tcp_params: TCPParams | None = None,
    ) -> None:
        if kind not in self.KNOWN_KINDS:
            raise ConfigError(
                f"unknown interface kind {kind!r}; expected one of {self.KNOWN_KINDS}"
            )
        self.env = env
        self.name = name
        self.kind = kind
        self.link = link
        self.latency = latency
        #: Which network (and hence which server pool) this NIC attaches to.
        self.network_id = network_id
        #: The client's source address in that network (informational).
        self.address = address
        self.tcp_params = tcp_params or TCPParams()
        self._connection_counter = 0
        #: Called with ``True`` on down, ``False`` on up (mobility hooks).
        self.status_listeners: list[Callable[[bool], None]] = []
        link.status_listeners.append(self._on_link_status)

    # -- state -------------------------------------------------------------

    @property
    def is_up(self) -> bool:
        return not self.link.is_down

    def set_up(self, up: bool) -> None:
        """Administratively raise/lower the interface (mobility events).

        Taking the interface down resets every connection bound to it —
        exactly the WiFi-walkout failure mode §2 motivates robustness
        against.
        """
        self.link.set_down(not up)
        if not up:
            self.link.reset_flows(LinkDownError(f"{self.name} went down"))

    def _on_link_status(self, down: bool) -> None:
        for listener in list(self.status_listeners):
            listener(down)

    # -- connections -------------------------------------------------------

    def open_connection(self, path_latency: LatencyProcess | None = None) -> TCPConnection:
        """Create a TCP connection bound to this interface.

        ``path_latency`` lets the topology add per-destination distance
        on top of the access-link latency; by default the access link
        dominates (the common case for last-mile wireless).
        The returned connection is *not* yet connected: drive its
        ``connect()`` generator from a simulation process.
        """
        if not self.is_up:
            raise LinkDownError(f"{self.name} is down")
        self._connection_counter += 1
        return TCPConnection(
            self.env,
            self.link,
            path_latency or self.latency,
            params=self.tcp_params,
            name=f"{self.name}#{self._connection_counter}",
        )

    @property
    def bytes_received(self) -> float:
        """Total bytes this interface's link has carried (Table 1 input)."""
        return self.link.bytes_carried

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.is_up else "down"
        return f"<NetworkInterface {self.name} ({self.kind}) {state} net={self.network_id}>"
