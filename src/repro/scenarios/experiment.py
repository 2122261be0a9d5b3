"""Declarative city-scale scenario populations.

:class:`ScenarioExperiment` is the city-scale planner beside
:class:`~repro.ext.multi_client.MultiClientExperiment`: the same
:class:`~repro.ext.population.PopulationExperiment` runner — one
environment, one CDN deployment, ``client_count`` clients — but
arrivals come from an :class:`~repro.scenarios.arrivals.ArrivalSpec`,
each client's driver / access profile / video from a
:class:`~repro.scenarios.mix.MixSpec`, and a
:class:`~repro.scenarios.churn.ChurnSpec` timeline degrades the CDN
underneath them.  The result is a plain
:class:`~repro.ext.population.MultiClientResult` and the work unit a
plain :class:`~repro.ext.population.PopulationSpec`, so the whole
population rides the existing population machinery — dense rows,
side records, byte-identical batches on every backend — without a new
collection path.

Adaptive-bitrate clients run :class:`~repro.ext.adaptive.
AdaptiveSimDriver` inside the shared world; the runner folds their
outcomes into :class:`~repro.sim.driver.SessionOutcome`.

Random-stream layout (all from the population seed): ``mix.*`` for the
catalog/classes/videos, ``arrivals.*`` for launch times, ``churn.*``
for the fault timeline and its victims, ``cdn`` for the deployment, and
``client-<i>`` children for each client's private links — disjoint
labels, so scenario ingredients never perturb each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

from ..cdn.catalog import Catalog
from ..core.config import PlayerConfig
from ..errors import ConfigError
from ..ext.adaptive import AdaptiveSimDriver, ThroughputController
from ..ext.population import ClientPlan, PopulationExperiment
from ..rng import RngFactory
from ..sim.driver import MSPlayerDriver
from ..sim.profiles import PROFILES, NetworkProfile
from ..sim.scenario import LTE_NET, WIFI_NET, Scenario, World
from .arrivals import ArrivalSpec
from .churn import ChurnSpec, schedule_churn
from .mix import ClientAssignment, MixSpec

__all__ = ["ScenarioExperiment"]


def _client_config(base: PlayerConfig, prebuffer_s: float | None) -> PlayerConfig:
    """A class's player config: optional shallow live-edge buffer."""
    if prebuffer_s is None:
        return base
    return replace(
        base,
        prebuffer_s=prebuffer_s,
        low_watermark_s=min(base.low_watermark_s, prebuffer_s / 2.0),
        rebuffer_fetch_s=min(base.rebuffer_fetch_s, prebuffer_s),
    )


@dataclass(frozen=True)
class ScenarioExperiment(PopulationExperiment):
    """One declarative scenario population: arrivals x mix x churn."""

    arrivals: ArrivalSpec = ArrivalSpec()
    mix: MixSpec = MixSpec()
    churn: ChurnSpec = ChurnSpec()
    client_count: int = 50
    seed: int = 2026
    world_profile: str = "youtube"
    overload_threshold: int | None = 2
    player_config: PlayerConfig = field(default_factory=PlayerConfig)
    max_sim_time: float = 900.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.world_profile not in PROFILES:
            raise ConfigError(
                f"unknown world profile {self.world_profile!r}; "
                f"known: {', '.join(sorted(PROFILES))}"
            )

    def plan(self) -> tuple[NetworkProfile, Catalog, list[ClientPlan]]:
        factory = RngFactory(self.seed)
        catalog = self.mix.build_catalog(factory)
        assignments = self.mix.assign(factory, self.client_count, catalog)
        delays = self.arrivals.times(self.seed, self.client_count)
        return PROFILES[self.world_profile](), catalog, [
            ClientPlan(
                _profile_for(assignment),
                assignment.video_id,
                partial(self._driver, assignment=assignment),
                delay,
            )
            for assignment, delay in zip(assignments, delays, strict=True)
        ]

    def _driver(
        self, scenario: Scenario, assignment: ClientAssignment
    ) -> MSPlayerDriver | AdaptiveSimDriver:
        config = _client_config(self.player_config, assignment.prebuffer_s)
        if assignment.driver == "adaptive":
            return AdaptiveSimDriver(
                scenario,
                ThroughputController(),
                config,
                stop="full",
                max_sim_time=self.max_sim_time,
            )
        return MSPlayerDriver(
            scenario, config, stop="full", max_sim_time=self.max_sim_time
        )

    def disturb(self, world: World, scenarios: list[Scenario]) -> None:
        """The churn timeline, over the CDN and the clients' interfaces."""
        timeline = self.churn.timeline(
            self.seed,
            networks=(WIFI_NET, LTE_NET),
            hosts_per_network=world.profile.video_servers_per_network,
        )
        schedule_churn(
            world.env,
            world.deployment,
            timeline,
            client_ifaces=[(s.wifi, s.lte) for s in scenarios],
            seed=self.seed,
        )


def _profile_for(assignment: ClientAssignment) -> NetworkProfile:
    try:
        factory = PROFILES[assignment.profile]
    except KeyError:
        raise ConfigError(
            f"client class {assignment.client_class!r} names unknown "
            f"profile {assignment.profile!r}"
        ) from None
    return factory()
