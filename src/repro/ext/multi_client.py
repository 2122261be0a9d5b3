"""Many MSPlayer clients sharing one CDN deployment.

The load-balancing side of §2's source-diversity argument: when a
population of players streams simultaneously, where the demand lands
depends on the CDN's server-selection policy.  This experiment plans
``client_count`` identical MSPlayer clients — each with its own
WiFi/LTE access links — arriving uniformly over two seconds against one
shared deployment; :class:`~repro.ext.population.PopulationExperiment`
runs them and reports start-up delays plus the byte distribution across
video servers for each :class:`~repro.cdn.selection.ServerSelection`
policy.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

from ..cdn.catalog import Catalog
from ..cdn.videos import VideoMeta
from ..core.config import PlayerConfig
from ..rng import RngFactory
from ..sim.driver import MSPlayerDriver
from ..sim.profiles import NetworkProfile
from ..sim.scenario import ScenarioConfig
from .population import ClientPlan, PopulationExperiment


@dataclass(frozen=True)
class MultiClientExperiment(PopulationExperiment):
    """A classic flash crowd: one profile, one clip, one MSPlayer config."""

    profile_factory: Callable[[], NetworkProfile]
    client_count: int = 6
    seed: int = 77
    video_duration_s: float = 150.0
    overload_threshold: int | None = 2
    player_config: PlayerConfig = field(default_factory=PlayerConfig)
    stop: str = "prebuffer"

    def plan(self) -> tuple[NetworkProfile, Catalog, list[ClientPlan]]:
        profile = self.profile_factory()
        config = ScenarioConfig(video_duration_s=self.video_duration_s)
        video = VideoMeta(
            video_id=config.video_id,
            title="Shared clip",
            author="multi",
            duration_s=config.video_duration_s,
            itags=config.itags,
        )
        catalog = Catalog()
        catalog.add(video)
        driver = partial(MSPlayerDriver, config=self.player_config, stop=self.stop)
        # Arrivals spread uniformly over a couple of seconds.
        stagger = RngFactory(self.seed).generator("stagger")
        return profile, catalog, [
            ClientPlan(profile, video.video_id, driver, float(stagger.uniform(0.0, 2.0)))
            for _ in range(self.client_count)
        ]
