"""Simulated HTTP server glue.

A :class:`SimHTTPServer` adapts an *application* — a plain callable
``(Request, client_network) -> Response`` — onto a
:class:`~repro.net.topology.Host`.  The server charges a service-time
model on top of whatever the application does: a fixed dispatch cost
plus a per-byte cost for assembling large responses, roughly an Apache
worker reading the video file off disk (the testbed ran Apache on Linux
3.5, §5).

Applications are synchronous and pure with respect to simulated time;
all *time* is charged by the server model and the network.  This split
keeps application logic (token checks, JSON building, range slicing)
unit-testable without an event loop.  The simulated players' range
requests skip the messages: ``serve_range`` hands a video server values.
"""

from __future__ import annotations

from collections.abc import Callable

from ..errors import ConfigError
from ..net.topology import Host
from .messages import Request, Response
from .ranges import ByteRange

#: Application signature: request + originating network id → response.
AppCallable = Callable[[Request, str], Response]


class SimHTTPServer:
    """Attach an application to a host with a service-time model."""

    def __init__(
        self,
        host: Host,
        app: AppCallable,
        base_service_time: float = 0.002,
        per_megabyte_service_time: float = 0.001,
        overload_threshold: int | None = None,
        overload_penalty: float = 0.050,
    ) -> None:
        if base_service_time < 0 or per_megabyte_service_time < 0:
            raise ConfigError("service times must be non-negative")
        self.host = host
        self.app = app
        self.base_service_time = base_service_time
        self.per_megabyte_service_time = per_megabyte_service_time
        #: Concurrent-request count beyond which each request pays an
        #: extra queueing penalty — the "server demand surge" effect the
        #: paper's source-diversity argument guards against (§2).
        self.overload_threshold = overload_threshold
        self.overload_penalty = overload_penalty
        self._in_flight = 0
        self.requests_served = 0
        host.app = self

    def begin_request(self) -> None:
        """Mark a request in flight (the client calls this around the
        whole exchange, so concurrent transfers count toward overload)."""
        self._in_flight += 1

    def end_request(self) -> None:
        self._in_flight = max(self._in_flight - 1, 0)

    def handle(self, request: Request, client_network: str) -> tuple[Response, float]:
        """Run the application and compute the think time to charge."""
        response = self.app(request, client_network)
        return response, self._served(response.body_size)

    def serve_range(
        self, video_id: str, itag: int, token: str, sig: str, byte_range: ByteRange
    ) -> tuple[int, int, int, float]:
        """:meth:`handle` made of values: ``(status, wire_size, body_size, think)``."""
        reply = self.app.serve_range(video_id, itag, token, sig, byte_range)  # type: ignore[attr-defined]
        status, body_size, header_size = reply
        return status, header_size + body_size, body_size, self._served(body_size)

    def _served(self, body_size: int) -> float:
        """Count one request served; returns the think time to charge."""
        think = (
            self.base_service_time
            + self.per_megabyte_service_time * body_size / (1024 * 1024)
        )
        if (
            self.overload_threshold is not None
            and self._in_flight > self.overload_threshold
        ):
            think += self.overload_penalty * (self._in_flight - self.overload_threshold)
        self.requests_served += 1
        return think

    @property
    def in_flight(self) -> int:
        return self._in_flight
