"""Traffic shaping for the loopback testbed.

Loopback moves gigabytes per second with microsecond RTTs; to make the
scheduler's job non-trivial the server shapes each connection:

* :class:`TokenBucket` — classic (rate, burst) limiter; the server
  awaits tokens before each write, so goodput converges to ``rate``;
* :class:`PathShape` — a path personality: rate, one-way latency
  (applied before the first response byte of every exchange, emulating
  the request RTT), egress burst and write granularity.

Shaping server-side egress is the standard user-space stand-in for
netns+tc: it produces the two effects the chunk scheduler actually
feeds on — bounded per-path goodput and a per-request idle gap.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

from ..errors import ConfigError


class TokenBucket:
    """Await-able token bucket (bytes as tokens).

    >>> bucket = TokenBucket(rate=1000.0, burst=100.0)
    >>> bucket.capacity
    100.0
    """

    def __init__(self, rate: float, burst: float, clock=time.monotonic) -> None:
        if rate <= 0 or burst <= 0:
            raise ConfigError("rate and burst must be positive")
        self.rate = float(rate)
        self.capacity = float(burst)
        self._tokens = float(burst)
        self._clock = clock
        self._last = clock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(self.capacity, self._tokens + (now - self._last) * self.rate)
        self._last = now

    def try_take(self, amount: float) -> float:
        """Synchronously take up to ``amount`` tokens; returns the wait
        time (seconds) needed before the *remainder* is available, or
        0.0 if fully granted."""
        if amount <= 0:
            raise ConfigError("token amount must be positive")
        self._refill()
        # Borrow against the future: the balance goes negative and the
        # caller sleeps until it would be non-negative again.  (Setting
        # the balance to zero instead would regenerate the slept-off
        # tokens on the next refill and double the effective rate.)
        self._tokens -= amount
        if self._tokens >= 0.0:
            return 0.0
        return -self._tokens / self.rate

    async def take(self, amount: float) -> None:
        """Take ``amount`` tokens, sleeping until the bucket allows it."""
        wait = self.try_take(amount)
        if wait > 0:
            await asyncio.sleep(wait)


@dataclass
class PathShape:
    """The personality of one emulated path."""

    name: str
    #: Goodput cap in bytes/s.
    rate: float
    #: One-way latency charged per request (seconds).
    one_way_delay: float
    #: Egress burst size in bytes (smaller = smoother pacing).
    burst: int = 32 * 1024
    #: Write granularity in bytes; smaller chunks pace more evenly.
    write_chunk: int = 16 * 1024

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ConfigError("rate must be positive")
        if self.one_way_delay < 0:
            raise ConfigError("one_way_delay must be non-negative")
        if self.burst <= 0 or self.write_chunk <= 0:
            raise ConfigError("burst and write_chunk must be positive")

    def make_bucket(self) -> TokenBucket:
        return TokenBucket(self.rate, float(self.burst))

    @property
    def rtt(self) -> float:
        return 2.0 * self.one_way_delay


async def shaped_write(
    writer: asyncio.StreamWriter,
    payload: bytes,
    bucket: TokenBucket,
    write_chunk: int,
) -> None:
    """Write ``payload`` paced by ``bucket`` in ``write_chunk`` slices."""
    view = memoryview(payload)
    offset = 0
    while offset < len(view):
        piece = view[offset : offset + write_chunk]
        await bucket.take(len(piece))
        writer.write(bytes(piece))
        await writer.drain()
        offset += len(piece)
