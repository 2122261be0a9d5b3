"""Idealized MPTCP-like aggregation to a single server (EXP-X2).

§2's "Content Source Diversity" argument: if YouTube spoke MPTCP,
a client would aggregate both paths *to one video server*, concentrating
demand ("users streaming videos from one server with high aggregate
bandwidth through multiple paths could quickly incur server demand
surges").  This driver realizes that counterfactual inside our
simulator so the source-diversity ablation can measure it:

* both interfaces fetch chunks, but every request goes to the *same*
  video server (the one in the WiFi network, as an MPTCP primary);
* scheduling reuses MSPlayer's machinery (it is a fair aggregate
  scheduler), so the only difference under test is source diversity;
* with a per-server ``overload_threshold`` configured in the scenario,
  the single server's queueing penalty grows with concurrent load —
  the effect MSPlayer's load spreading avoids.

This is *idealized* MPTCP: no middlebox fallback, no option stripping —
i.e. the best case for the alternative.  The paper notes two of three
US carriers blocked MPTCP entirely; modelling that would only make the
comparison more lopsided.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.config import PlayerConfig
from ..sim.driver import MSPlayerDriver
from ..sim.scenario import Scenario

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.execution import SessionDriver


class MPTCPLikeDriver(MSPlayerDriver):
    """MSPlayer's driver with source diversity surgically removed."""

    def __init__(
        self,
        scenario: Scenario,
        config: PlayerConfig | None = None,
        stop: str = "full",
        target_cycles: int = 3,
        max_sim_time: float = 1800.0,
    ) -> None:
        super().__init__(
            scenario,
            config=config,
            stop=stop,
            target_cycles=target_cycles,
            max_sim_time=max_sim_time,
        )
        #: The single server both subflows converge on (set at bootstrap).
        self.primary_server: str | None = None
        #: Runtime of the path that won the bootstrap race; its token,
        #: signature, and video info are shared by both subflows, the
        #: way one MPTCP connection shares one HTTPS session.
        self._primary_runtime = None

    def _full_bootstrap(self, path_id: int, runtime):
        details = yield from super()._full_bootstrap(path_id, runtime)
        # Pin every path's candidate list to the primary path's first
        # server.  The session's SourceManager then has exactly one
        # candidate per path — the same host.
        if self.primary_server is None:
            self.primary_server = details.video_servers[0]
            self._primary_runtime = runtime
        pinned = details.__class__(
            total_bytes=details.total_bytes,
            bitrate_bytes_per_s=details.bitrate_bytes_per_s,
            duration_s=details.duration_s,
            video_servers=(self.primary_server,),
            json_completed_at=details.json_completed_at,
        )
        runtime.details = pinned
        # The data connection must go to the pinned server, not the
        # path-local pool: warm it now (the super() call warmed the
        # local one, which simply goes unused for the secondary path).
        yield from runtime.client.connect(self.primary_server)
        return pinned

    def _fetch(self, command):
        # Both subflows present the primary's token and signature: the
        # token is pool-bound (§4), and with a single server there is a
        # single pool.  The connection itself still rides the commanded
        # path's interface.
        primary = self._primary_runtime
        if primary is not None:
            runtime = self._runtimes[command.path_id]
            runtime.info = primary.info
            runtime.signature = primary.signature
        yield from super()._fetch(command)

    @property
    def server_concentration(self) -> float:
        """Fraction of bytes served by the busiest video server (1.0 = all)."""
        served = self.scenario.deployment.total_bytes_served()
        total = sum(served.values())
        return max(served.values()) / total if total else 0.0


if TYPE_CHECKING:  # pragma: no cover - static conformance declaration

    def _declares_session_driver(driver: MPTCPLikeDriver) -> "SessionDriver":
        return driver
