"""Per-network source lists and failover (§2 "Content Source Diversity").

    "MSPlayer, at the initial phase, collects a list of YouTube
    servers' addresses in each network exploited.  If a server in a
    network fails or is overloaded, MSPlayer switches to another server
    in that network and resumes video streaming."

The :class:`SourceManager` is that list plus the switching policy: per
path (network) it remembers the candidate video servers the web proxy
returned, which one is active, and which have failed.  Failed servers
go to the back of the line with a strike count; a server that has
failed ``max_strikes`` times is dropped for the session.  When every
candidate in a network is exhausted the path is declared dead and the
session continues single-path — robustness degrades gracefully rather
than aborting playback.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SourcesExhaustedError


@dataclass
class _CandidateState:
    address: str
    strikes: int = 0


@dataclass
class SourceManager:
    """Candidate video servers for one path/network."""

    network_id: str
    max_strikes: int = 2
    _candidates: list[_CandidateState] = field(default_factory=list)
    _active_index: int | None = None
    #: (time, old_address, new_address) failover log for experiments.
    failover_log: list[tuple[float, str, str | None]] = field(default_factory=list)

    # -- setup -------------------------------------------------------------

    def set_candidates(self, addresses: list[str]) -> None:
        """Install the server list from the web proxy's JSON (ordered)."""
        if not addresses:
            raise SourcesExhaustedError(f"proxy returned no servers for {self.network_id}")
        known = {c.address for c in self._candidates}
        for address in addresses:
            if address not in known:
                self._candidates.append(_CandidateState(address))
                known.add(address)
        if self._active_index is None:
            self._active_index = 0

    # -- queries ------------------------------------------------------------

    @property
    def active(self) -> str:
        if self._active_index is None or not self._candidates:
            raise SourcesExhaustedError(f"no active server in {self.network_id}")
        return self._candidates[self._active_index].address

    @property
    def candidate_count(self) -> int:
        return len(self._candidates)

    def addresses(self) -> list[str]:
        return [c.address for c in self._candidates]

    # -- failover -------------------------------------------------------------

    def report_failure(self, now: float) -> str | None:
        """The active server failed; advance to the next viable candidate.

        Returns the new active address, or ``None`` (and raises on the
        *next* ``active`` read) when all candidates are spent.  The
        failed server is struck; servers under the strike limit remain
        eligible for a later retry round.

        With no active server — a first bootstrap that died before the
        proxy's list was installed, or a list already spent — there is
        nothing to strike and nothing to switch to: that is exhaustion
        too, reported the same way so the session drops this path and
        carries on over the other one.
        """
        if self._active_index is None:
            return None
        failed = self._candidates[self._active_index]
        failed.strikes += 1
        viable = [
            i
            for i, candidate in enumerate(self._candidates)
            if candidate.strikes < self.max_strikes
        ]
        # Prefer the next candidate after the failed one, wrapping.
        next_index: int | None = None
        for offset in range(1, len(self._candidates) + 1):
            index = (self._active_index + offset) % len(self._candidates)
            if index in viable and index != self._active_index:
                next_index = index
                break
        if next_index is None and self._active_index in viable:
            # Only the current one is viable: retry it.
            next_index = self._active_index
        old_address = failed.address
        if next_index is None:
            self._active_index = None
            self.failover_log.append((now, old_address, None))
            return None
        self._active_index = next_index
        new_address = self._candidates[next_index].address
        self.failover_log.append((now, old_address, new_address))
        return new_address

    @property
    def exhausted(self) -> bool:
        return self._active_index is None
