"""TCP connection model over a fluid link.

MSPlayer deliberately runs *legacy single-path TCP* on each interface
(§2: middleboxes strip MPTCP options, so plain TCP is the deployable
choice).  What the chunk scheduler feels from TCP is:

* connection setup latency (3-way handshake: one RTT);
* one idle RTT between sending a range request and the first response
  byte — the per-chunk overhead that makes small chunks slow (Fig. 3);
* slow-start: a fresh (or long-idle) connection ramps its window from
  ``IW`` segments, doubling per RTT, so short transfers never reach
  link rate — the reason 16 KB chunks are disproportionately bad;
* steady state: the flow runs at the bottleneck's capacity.  An
  interface has one exchange in flight at a time, so a
  :class:`~repro.net.link.Link` carries one flow and refuses a second.

We model the congestion window as a *rate cap* ``cwnd / RTT`` on the
link flow, doubled every RTT until the flow is no longer cap-limited.
The doubling schedule is closed-form: the link computes the doubling
instants analytically and folds them into its next-completion wake-up
(see :meth:`repro.net.link.Link._state_changed`), so slow start costs
no pacer process and no per-doubling timeout events.  The window
persists across requests on a persistent connection and collapses back
to ``IW`` after an idle period
(RFC 2861 congestion-window validation), which matters for the ON/OFF
re-buffering phase: every OFF period costs a fresh ramp-up.

CUBIC vs Reno dynamics beyond slow start are intentionally not
distinguished: at the paper's bandwidth-delay products the experiments
are dominated by handshakes, request RTTs, and slow start; steady state
is capacity-share-limited either way.  (The testbed servers ran CUBIC —
§5; we note this substitution in DESIGN.md.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigError, ConnectionClosedError, LinkDownError, NetworkError
from .env import Environment
from .latency import LatencyProcess
from .link import FlowHandle, Link
from .tls import TLSParams, tls_handshake_duration


@dataclass(frozen=True, slots=True)
class TCPParams:
    """Tunable constants of the connection model."""

    #: Maximum segment size in bytes (Ethernet-ish default).
    mss: int = 1448
    #: Initial congestion window in segments (RFC 6928).
    initial_window: int = 10
    #: Idle time after which cwnd collapses back to IW (RFC 2861-style).
    idle_reset_after: float = 1.0
    #: Upper bound on cwnd in bytes (receive-window stand-in).
    max_window: int = 4 * 1024 * 1024

    def __post_init__(self) -> None:
        if not (self.mss > 0 and self.initial_window > 0):
            raise ConfigError("mss and initial_window must be positive")
        if not self.idle_reset_after >= 0:
            raise ConfigError("idle_reset_after must be non-negative")
        if not self.max_window >= self.mss * self.initial_window:
            raise ConfigError("max_window smaller than the initial window")

    @property
    def initial_window_bytes(self) -> int:
        return self.mss * self.initial_window


class TransferResult:
    """Timing record for one request/response exchange."""

    __slots__ = ("requested_at", "first_byte_at", "completed_at", "num_bytes")

    def __init__(
        self, requested_at: float, first_byte_at: float, completed_at: float, num_bytes: int
    ) -> None:
        self.requested_at = requested_at
        self.first_byte_at = first_byte_at
        self.completed_at = completed_at
        self.num_bytes = num_bytes

    @property
    def duration(self) -> float:
        """Request-to-last-byte time — the ``T_i`` of the paper's §3.3."""
        return self.completed_at - self.requested_at

    @property
    def throughput(self) -> float:
        """``w_i = S_i / T_i`` exactly as the schedulers measure it."""
        return self.num_bytes / self.duration if self.duration > 0 else math.inf


class TCPConnection:
    """A client-side TCP connection bound to one interface's link.

    The connection is *persistent*: many request/response exchanges may
    run sequentially over it, as MSPlayer does with HTTP keep-alive
    range requests (§4).  Concurrent exchanges on one connection are a
    programming error and raise.
    """

    __slots__ = (
        "env",
        "link",
        "latency",
        "params",
        "name",
        "connected",
        "closed",
        "secure",
        "_cwnd",
        "_last_activity",
        "_busy",
        "_current_flow",
        "bytes_received",
        "request_count",
    )

    def __init__(
        self,
        env: Environment,
        link: Link,
        latency: LatencyProcess,
        params: TCPParams | None = None,
        name: str = "tcp",
    ) -> None:
        self.env = env
        self.link = link
        self.latency = latency
        self.params = params or TCPParams()
        self.name = name
        self.connected = False
        self.closed = False
        self.secure = False
        self._cwnd = float(self.params.initial_window_bytes)
        self._last_activity = env.now
        self._busy = False
        self._current_flow: FlowHandle | None = None
        #: Cumulative bytes received, for per-path traffic accounting.
        self.bytes_received = 0
        #: Exchange count, for request-overhead accounting.
        self.request_count = 0

    # -- lifecycle -----------------------------------------------------------

    def connect(self):
        """Generator: TCP 3-way handshake (one RTT before data can flow).

        Drive with ``yield from``, or wrap in ``env.process`` to run
        concurrently.
        """
        self._check_usable(allow_unconnected=True)
        yield self.env.pooled_timeout(2.0 * self.latency.sample())
        if self.link.is_down:
            raise LinkDownError(f"{self.name}: link went down during handshake")
        self.connected = True
        self._last_activity = self.env.now

    def secure_handshake(self, tls: TLSParams, resumed: bool = False):
        """Generator: TLS handshake per the Fig. 1 message sequence.

        Driven like :meth:`connect`.
        """
        self._check_usable()
        rtt = 2.0 * self.latency.sample()
        yield self.env.pooled_timeout(tls_handshake_duration(rtt, tls, resumed=resumed))
        if self.link.is_down:
            raise LinkDownError(f"{self.name}: link went down during TLS handshake")
        self.secure = True
        self._last_activity = self.env.now

    def close(self) -> None:
        """Close the connection; aborts any in-flight transfer."""
        if self.closed:
            return
        self.closed = True
        self.connected = False
        if self._current_flow is not None and self._current_flow.active:
            self._current_flow.abort(ConnectionClosedError(f"{self.name} closed"))

    def reset(self, error: NetworkError | None = None) -> None:
        """Model a RST / path break: the connection dies immediately."""
        if self.closed:
            return
        self.closed = True
        self.connected = False
        if self._current_flow is not None and self._current_flow.active:
            self._current_flow.abort(
                error or NetworkError(f"{self.name}: connection reset")
            )

    # -- data transfer ---------------------------------------------------------

    def exchange(self, response_bytes: int, server_delay: float = 0.0):
        """Generator: one request/response; returns a :class:`TransferResult`.

        Drive with ``yield from``, or wrap in ``env.process`` to run
        concurrently.

        Timeline charged:

        1. request upstream + server processing + first byte downstream:
           one RTT plus ``server_delay`` (requests are header-sized, so
           their serialization time is negligible against the RTT);
        2. response body as a fluid flow on the link, rate-capped by the
           congestion window, which the link's closed-form slow-start
           schedule doubles every RTT until the cap stops binding.
        """
        self._check_usable()
        if response_bytes <= 0:
            raise ConfigError(f"response_bytes must be positive, got {response_bytes}")
        if self._busy:
            raise ConnectionClosedError(
                f"{self.name}: pipelined exchanges on one connection are not modelled"
            )
        self._busy = True
        try:
            requested_at = self.env.now
            self.request_count += 1
            self._maybe_idle_reset()
            rtt = 2.0 * self.latency.sample()
            yield self.env.pooled_timeout(rtt + max(server_delay, 0.0))
            if self.closed:
                raise ConnectionClosedError(f"{self.name} closed while waiting")
            if self.link.is_down:
                raise LinkDownError(f"{self.name}: link down at first byte")
            first_byte_at = self.env.now

            flow = self.link.start_flow(
                response_bytes,
                cap=self._cwnd / rtt,
                ramp_rtt=rtt,
                ramp_limit=float(self.params.max_window) / rtt,
            )
            self._current_flow = flow
            try:
                yield flow.done
            except BaseException:
                # Aborted mid-transfer: warm the next request with the
                # window the ramp had reached.  Catch the cap up first —
                # the link stops advancing a detached flow's schedule.
                flow._advance_ramp(self.env.now)
                self._cwnd = float(
                    min(
                        max(flow.cap * rtt, self.params.initial_window_bytes),
                        self.params.max_window,
                    )
                )
                raise
            finally:
                self._current_flow = None
            completed_at = self.env.now
            self.bytes_received += response_bytes
            self._last_activity = completed_at

            # Remember the achieved window so the next request on this
            # persistent connection starts warm.
            duration = max(completed_at - first_byte_at, 1e-9)
            achieved = response_bytes / duration * rtt
            self._cwnd = float(
                min(max(achieved, self.params.initial_window_bytes), self.params.max_window)
            )
            return TransferResult(requested_at, first_byte_at, completed_at, response_bytes)
        finally:
            self._busy = False

    # -- internals ---------------------------------------------------------------

    def _maybe_idle_reset(self) -> None:
        idle = self.env.now - self._last_activity
        if idle > self.params.idle_reset_after:
            self._cwnd = float(self.params.initial_window_bytes)

    def _check_usable(self, allow_unconnected: bool = False) -> None:
        if self.closed:
            raise ConnectionClosedError(f"{self.name} is closed")
        if self.link.is_down:
            raise LinkDownError(f"{self.name}: link is down")
        if not allow_unconnected and not self.connected:
            raise ConnectionClosedError(f"{self.name} is not connected")

    @property
    def cwnd(self) -> float:
        """Current congestion window estimate in bytes."""
        return self._cwnd

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else ("open" if self.connected else "new")
        return f"<TCPConnection {self.name} {state} cwnd={self._cwnd:.0f}B>"
