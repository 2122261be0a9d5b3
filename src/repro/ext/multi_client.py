"""Many MSPlayer clients sharing one CDN deployment.

The load-balancing side of §2's source-diversity argument: when a
population of players streams simultaneously, where the demand lands
depends on the CDN's server-selection policy.  This experiment spawns
``client_count`` independent MSPlayer clients — each with its own
WiFi/LTE access links — against one shared deployment, and reports
start-up delays plus the byte distribution across video servers for
each :class:`~repro.cdn.selection.ServerSelection` policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cdn.catalog import Catalog
from ..cdn.deployment import CDNConfig, CDNDeployment
from ..cdn.videos import VideoMeta
from ..core.config import PlayerConfig
from ..errors import ConfigError
from ..net.dns import StubResolver
from ..net.env import Environment
from ..net.iface import NetworkInterface
from ..net.link import Link
from ..net.topology import Network
from ..rng import RngFactory
from ..sim.driver import MSPlayerDriver, SessionOutcome
from ..sim.profiles import NetworkProfile
from ..sim.scenario import LTE_NET, WIFI_NET, Scenario, ScenarioConfig


class _SharedWorldScenario(Scenario):
    """A Scenario subclass whose CDN/topology is shared across clients.

    Each client still gets private access links and interfaces (their
    bottlenecks are their own last miles), derived from independent
    random substreams, but hosts/DNS/catalog are common.
    """

    def __init__(
        self,
        profile: NetworkProfile,
        seed: int,
        client_index: int,
        shared_env: Environment,
        shared_network: Network,
        shared_resolver: StubResolver,
        shared_catalog: Catalog,
        shared_deployment: CDNDeployment,
        config: ScenarioConfig,
    ) -> None:
        # Deliberately NOT calling super().__init__: we assemble the
        # same attributes around the shared world.
        self.profile = profile
        self.config = config
        self.rng_factory = RngFactory(seed).child(f"client-{client_index}")
        self.env = shared_env
        self.network = shared_network
        self.resolver = shared_resolver
        self.catalog = shared_catalog
        self.deployment = shared_deployment
        self.video = shared_catalog.get(config.video_id)

        label = f"c{client_index}"
        self.wifi_link = Link(
            self.env,
            profile.wifi.bandwidth_process(self.rng_factory, f"{label}.wifi"),
            name=f"{label}-wifi-link",
        )
        self.lte_link = Link(
            self.env,
            profile.lte.bandwidth_process(self.rng_factory, f"{label}.lte"),
            name=f"{label}-lte-link",
        )
        self.wifi = NetworkInterface(
            self.env,
            name=f"{label}-wlan0",
            kind="wifi",
            link=self.wifi_link,
            latency=profile.wifi.latency_process(self.rng_factory, f"{label}.wifi"),
            network_id=WIFI_NET,
            address=f"192.168.1.{client_index + 10}",
        )
        self.lte = NetworkInterface(
            self.env,
            name=f"{label}-wwan0",
            kind="lte",
            link=self.lte_link,
            latency=profile.lte.latency_process(self.rng_factory, f"{label}.lte"),
            network_id=LTE_NET,
            address=f"10.54.3.{client_index + 10}",
        )


@dataclass
class MultiClientResult:
    policy: str
    outcomes: list[SessionOutcome] = field(default_factory=list)
    server_bytes: dict[str, int] = field(default_factory=dict)

    def startup_delays(self) -> list[float]:
        return [o.startup_delay for o in self.outcomes if o.startup_delay is not None]

    @property
    def load_imbalance(self) -> float:
        """Max/mean byte ratio across *all* video servers.

        1.0 = perfectly even; with S servers, a policy that starves all
        but one scores S.  Idle servers count — an unused replica is
        exactly the imbalance the selection policy should prevent.
        """
        loads = list(self.server_bytes.values())
        if not loads or sum(loads) == 0:
            return 0.0
        return max(loads) / (sum(loads) / len(loads))


class MultiClientExperiment:
    """Run a client population under one selection policy."""

    def __init__(
        self,
        profile_factory,
        client_count: int = 6,
        seed: int = 77,
        video_duration_s: float = 150.0,
        overload_threshold: int | None = 2,
        player_config: PlayerConfig | None = None,
        stop: str = "prebuffer",
        launch_schedule=None,
        world_hook=None,
    ) -> None:
        if client_count < 1:
            raise ConfigError("need at least one client")
        self.profile_factory = profile_factory
        self.client_count = client_count
        self.seed = seed
        self.video_duration_s = video_duration_s
        self.overload_threshold = overload_threshold
        self.player_config = player_config or PlayerConfig()
        self.stop = stop
        #: ``(rng, count) -> launch delays`` — the scenarios package's
        #: arrival-process seam.  ``None`` keeps the classic uniform
        #: 2-second flash-crowd stagger, bit-for-bit (same rng stream,
        #: same draw sequence).  Module-level callables only: specs that
        #: carry this hook ride the process engines pickled.
        self.launch_schedule = launch_schedule
        #: ``(env, deployment) -> None`` run after the world is built
        #: and before any client launches — where churn timelines
        #: register their timer processes (same pickling rule).
        self.world_hook = world_hook

    def run(self, policy: str) -> MultiClientResult:
        profile = self.profile_factory()
        config = ScenarioConfig(
            video_duration_s=self.video_duration_s,
            selection_policy=policy,
            overload_threshold=self.overload_threshold,
        )
        env = Environment()
        network = Network(env)
        resolver = StubResolver(env, lookup_delay=profile.dns_delay_s)
        catalog = Catalog()
        catalog.add(
            VideoMeta(
                video_id=config.video_id,
                title="Shared clip",
                author="multi",
                duration_s=config.video_duration_s,
                itags=config.itags,
            )
        )
        deployment = CDNDeployment(
            env,
            network,
            catalog,
            CDNConfig(
                networks=(WIFI_NET, LTE_NET),
                video_servers_per_network=profile.video_servers_per_network,
                selection_policy=policy,
                tls=profile.tls,
                proxy_distance=profile.proxy_distance_s,
                video_distance=profile.video_distance_s,
                overload_threshold=self.overload_threshold,
            ),
            rng=RngFactory(self.seed).generator("cdn"),
            resolver=resolver,
        )

        drivers: list[MSPlayerDriver] = []
        rng = RngFactory(self.seed).generator("stagger")
        for index in range(self.client_count):
            scenario = _SharedWorldScenario(
                profile,
                seed=self.seed,
                client_index=index,
                shared_env=env,
                shared_network=network,
                shared_resolver=resolver,
                shared_catalog=catalog,
                shared_deployment=deployment,
                config=config,
            )
            driver = MSPlayerDriver(scenario, self.player_config, stop=self.stop)
            drivers.append(driver)

        if self.world_hook is not None:
            self.world_hook(env, deployment)

        # Stagger client arrivals — uniformly over a couple of seconds
        # (the classic flash crowd) unless an arrival process supplies
        # the launch schedule — then launch them in one environment.
        def _staggered_launch(driver: MSPlayerDriver, delay: float):
            yield env.pooled_timeout(delay)
            driver.launch()

        if self.launch_schedule is None:
            delays = [float(rng.uniform(0.0, 2.0)) for _ in drivers]
        else:
            delays = [float(d) for d in self.launch_schedule(rng, len(drivers))]
        if len(delays) != len(drivers):
            raise ConfigError(
                f"launch schedule produced {len(delays)} delays for "
                f"{len(drivers)} clients"
            )
        for driver, delay in zip(drivers, delays, strict=True):
            env.process(_staggered_launch(driver, delay))

        env.run(until=env.all_of([driver.finished for driver in drivers]))

        result = MultiClientResult(policy=policy)
        for driver in drivers:
            result.outcomes.append(driver.collect())
        result.server_bytes = deployment.total_bytes_served()
        return result

    # -- population campaigns -----------------------------------------------

    def replicate_seed(self, replicate: int) -> int:
        """The derived seed of one replicate population.

        Policy-independent on purpose: every policy of a comparison
        sees the *same* sequence of seeded populations, so policy
        differences are never confounded with seed differences (the
        population analogue of the paper's identically seeded
        configuration repetitions).
        """
        return RngFactory(self.seed).child(f"replicate-{replicate}").integer(
            "population"
        )

    def specs_for(self, policy: str, replicates: int = 1) -> list:
        """Picklable :class:`~repro.ext.population.PopulationSpec`s that
        rebuild this experiment (one whole population per spec) on any
        execution backend."""
        # Imported lazily: repro.ext.population imports from this
        # module, and a module-level import would close that cycle.
        from .population import PopulationSpec

        return [
            PopulationSpec(
                label=policy,
                trial=replicate,
                seed=self.replicate_seed(replicate),
                policy=policy,
                client_count=self.client_count,
                profile_factory=self.profile_factory,
                video_duration_s=self.video_duration_s,
                overload_threshold=self.overload_threshold,
                player_config=self.player_config,
                stop=self.stop,
                launch_schedule=self.launch_schedule,
                world_hook=self.world_hook,
            )
            for replicate in range(replicates)
        ]
