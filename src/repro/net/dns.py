"""Stub DNS resolver.

MSPlayer "uses Google's public DNS service to resolve the IP addresses
of YouTube servers" (§2, Content Source Diversity) and — crucially —
resolves *through each interface separately*, because YouTube's
server-selection returns different video-server pools depending on the
network the query arrives from [3].  The stub resolver reproduces that:
records are keyed by ``(name, network_id)`` with a global fallback, and
lookups charge a configurable latency (one RTT to the resolver plus
cache behaviour).

This is intentionally a *stub* (no wire format): the experiments only
need correct per-network answers and a realistic latency charge.
"""

from __future__ import annotations

from ..errors import ConfigError, DNSError
from .env import Environment


class StubResolver:
    """Per-network name → address-list resolution with TTL-less caching."""

    __slots__ = ("env", "lookup_delay", "_records", "_cache", "misses", "hits")

    def __init__(self, env: Environment, lookup_delay: float = 0.030) -> None:
        if lookup_delay < 0:
            raise ConfigError("lookup_delay must be non-negative")
        self.env = env
        self.lookup_delay = lookup_delay
        #: (name, network_id or None) -> list of addresses
        self._records: dict[tuple[str, str | None], list[str]] = {}
        self._cache: dict[tuple[str, str | None], list[str]] = {}
        #: Count of uncached lookups, for overhead accounting.
        self.misses = 0
        self.hits = 0

    # -- record management ----------------------------------------------------

    def add_record(self, name: str, addresses: list[str], network_id: str | None = None) -> None:
        """Register ``name`` → ``addresses``; optionally scoped to one network."""
        if not addresses:
            raise ConfigError(f"no addresses given for {name!r}")
        self._records[(name, network_id)] = list(addresses)

    def flush_cache(self) -> None:
        self._cache.clear()

    # -- queries ----------------------------------------------------------------

    def resolve(self, name: str, network_id: str | None = None):
        """Generator: resolve ``name`` as seen from ``network_id``.

        Drive with ``yield from``, or wrap in ``env.process`` to run
        concurrently.

        Returns the address list.  Cached answers return immediately —
        under ``yield from`` without touching the kernel (YouTube player
        behaviour: the JSON URL is resolved once per session); cold
        lookups cost ``lookup_delay``.
        """
        key = (name, network_id)
        if key in self._cache:
            self.hits += 1
            return self._cache[key]
        self.misses += 1
        yield self.env.pooled_timeout(self.lookup_delay)
        answer = self._records.get(key)
        if answer is None:
            # Fall back to the network-agnostic record.
            answer = self._records.get((name, None))
        if answer is None:
            raise DNSError(f"NXDOMAIN: {name!r} (network {network_id!r})")
        self._cache[key] = answer
        return answer

    def resolve_now(self, name: str, network_id: str | None = None) -> list[str]:
        """Zero-latency resolution for tests and setup code."""
        answer = self._records.get((name, network_id)) or self._records.get((name, None))
        if answer is None:
            raise DNSError(f"NXDOMAIN: {name!r} (network {network_id!r})")
        return answer
