"""Exception hierarchy for the MSPlayer reproduction.

All library-raised exceptions derive from :class:`ReproError`, so callers
can catch one base class at API boundaries.  Subsystems define narrower
classes here (rather than locally) to avoid import cycles between the
network, HTTP, CDN, and player layers.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """A configuration value is missing, malformed, or out of range."""


class UnitParseError(ConfigError):
    """A human-readable unit string (e.g. ``"256KB"``) could not be parsed."""


class ServiceError(ConfigError):
    """The study service (broker, worker, or client) failed or was misused.

    A :class:`ConfigError` subclass on purpose: callers that already
    catch configuration problems at API boundaries (the CLI handlers,
    ``Study.run`` users) report service failures the same way — one
    line, exit code 2 — instead of needing a new except arm.
    """


# --------------------------------------------------------------------------
# Simulation kernel
# --------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for discrete-event simulation errors."""


class ClockError(SimulationError):
    """An event was scheduled in the past or the clock moved backwards."""


class ProcessError(SimulationError):
    """A simulation process misbehaved (e.g. yielded a non-event)."""


# --------------------------------------------------------------------------
# Network substrate
# --------------------------------------------------------------------------


class NetworkError(ReproError):
    """Base class for (simulated) network failures."""


class ConnectionClosedError(NetworkError):
    """Operation on a connection that is already closed."""


class ConnectionResetError_(NetworkError):
    """The remote endpoint or the path reset the connection mid-transfer.

    Named with a trailing underscore to avoid shadowing the built-in
    :class:`ConnectionResetError`; the built-in is *not* raised by the
    simulator so that simulated failures are distinguishable from real
    socket errors in the live backend.
    """


class LinkDownError(NetworkError):
    """The underlying link/interface is administratively or physically down."""


class DNSError(NetworkError):
    """Name resolution failed."""


class RoutingError(NetworkError):
    """No route from the selected interface to the destination."""


# --------------------------------------------------------------------------
# HTTP substrate
# --------------------------------------------------------------------------


class HTTPError(ReproError):
    """Base class for HTTP protocol errors."""


class HTTPParseError(HTTPError):
    """Malformed HTTP message on the wire."""


class RangeError(HTTPError):
    """Malformed or unsatisfiable byte-range specification (RFC 7233)."""


class HTTPStatusError(HTTPError):
    """A response carried an unexpected status code.

    :attr:`status` holds the numeric code so retry logic can dispatch.
    """

    def __init__(self, status: int, reason: str = "") -> None:
        super().__init__(f"unexpected HTTP status {status} {reason}".rstrip())
        self.status = status
        self.reason = reason


# --------------------------------------------------------------------------
# CDN / service emulation
# --------------------------------------------------------------------------


class CDNError(ReproError):
    """Base class for video-service errors."""


class VideoNotFoundError(CDNError):
    """The requested video id is not in the catalog."""


class TokenError(CDNError):
    """An access token is missing, malformed, expired, or scope-mismatched."""


class SignatureError(CDNError):
    """A (copyrighted) video signature failed to decipher or verify."""


class ServerUnavailableError(CDNError, NetworkError):
    """The selected video server is failed, overloaded, or draining.

    Also a :class:`NetworkError`: a crashed server manifests to the
    client as refused/reset connections, so transport-level handlers
    (retry, failover, session eviction) must catch it.
    """


# --------------------------------------------------------------------------
# Player core
# --------------------------------------------------------------------------


class PlayerError(ReproError):
    """Base class for player-state errors."""


class SchedulerError(PlayerError):
    """The chunk scheduler was driven with inconsistent inputs."""


class BufferError_(PlayerError):
    """Playout-buffer invariant violated (named to avoid the built-in)."""


class SourcesExhaustedError(PlayerError):
    """Every candidate video server in a network has been tried and failed."""
