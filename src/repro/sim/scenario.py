"""Scenario construction: profile → a runnable simulated world.

This module is the one place a simulated world is wired:

* :class:`World` is what every client of a world shares — the
  environment, the topology, the DNS resolver, the catalog and the CDN
  deployment (proxies + video servers in each network);
* a :class:`Scenario` is one client's view of a world: its own WiFi and
  LTE access links and interfaces, the video it plays, and its
  profile's outages.

``Scenario(profile, seed, config)`` is a single trial: it builds a
private world around one client, and every trial builds a fresh one so
no state leaks between repetitions.  :meth:`Scenario.join` puts client
``index`` of a population into a shared world instead; its access draws
from its own ``client-<index>`` random substream, and the population
runner (:mod:`repro.ext.population`) shifts its outages by its launch
delay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..cdn.catalog import Catalog
from ..cdn.deployment import CDNConfig, CDNDeployment
from ..cdn.videos import VideoMeta
from ..errors import ConfigError
from ..net.dns import StubResolver
from ..net.env import Environment
from ..net.iface import NetworkInterface
from ..net.link import Link
from ..net.topology import Network
from ..rng import RngFactory
from .profiles import NetworkProfile

#: Network ids used throughout scenarios: index 0 = WiFi, 1 = LTE.
WIFI_NET = "wifi-net"
LTE_NET = "lte-net"


@dataclass(frozen=True)
class ScenarioConfig:
    """Per-trial knobs that are not part of the network profile."""

    video_duration_s: float = 300.0
    video_id: str = "qjT4T2gU9sM"  # the paper's own example URL (§3.1)
    copyrighted: bool = False
    itags: tuple[int, ...] = (18, 22, 37)
    selection_policy: str = "static"
    overload_threshold: int | None = None

    def __post_init__(self) -> None:
        if not 0 < self.video_duration_s < math.inf:
            raise ConfigError(
                f"video_duration_s must be positive and finite, got {self.video_duration_s}"
            )


class World:
    """The shared part of a simulated world: one clock, one topology,
    one DNS, one catalog and one CDN deployment serving it.

    ``profile`` shapes the deployment (servers per network, TLS,
    distances, DNS delay); ``rng`` is the deployment's own stream.
    """

    def __init__(
        self,
        profile: NetworkProfile,
        catalog: Catalog,
        selection_policy: str,
        overload_threshold: int | None,
        rng: np.random.Generator,
    ) -> None:
        self.profile = profile
        self.env = Environment()
        self.network = Network(self.env)
        self.resolver = StubResolver(self.env, lookup_delay=profile.dns_delay_s)
        self.catalog = catalog
        self.deployment = CDNDeployment(
            self.env,
            self.network,
            catalog,
            CDNConfig(
                networks=(WIFI_NET, LTE_NET),
                video_servers_per_network=profile.video_servers_per_network,
                selection_policy=selection_policy,
                tls=profile.tls,
                proxy_distance=profile.proxy_distance_s,
                video_distance=profile.video_distance_s,
                overload_threshold=overload_threshold,
            ),
            rng=rng,
            resolver=self.resolver,
        )


class Scenario:
    """One client in a fully wired simulated world."""

    def __init__(
        self, profile: NetworkProfile, seed: int, config: ScenarioConfig | None = None
    ) -> None:
        config = config or ScenarioConfig()
        rng_factory = RngFactory(seed)
        # The video under test (the paper pre-downloads one HD clip, §5).
        catalog = Catalog()
        catalog.add(
            VideoMeta(
                video_id=config.video_id,
                title="Testbed HD clip",
                author="umass",
                duration_s=config.video_duration_s,
                itags=config.itags,
                copyrighted=config.copyrighted,
            )
        )
        world = World(
            profile,
            catalog,
            config.selection_policy,
            config.overload_threshold,
            rng_factory.generator("cdn"),
        )
        self._connect(world, profile, config, rng_factory, tag="", hosts=(23, 99))
        self.schedule_outages()

    @classmethod
    def join(
        cls,
        world: World,
        profile: NetworkProfile,
        seed: int,
        index: int,
        config: ScenarioConfig,
    ) -> Scenario:
        """Client ``index`` of a population sharing ``world``.

        Its access links are its own last miles, drawn from the
        ``client-<index>`` substream of ``seed``; hosts, DNS and catalog
        are the world's.  Its outages are not scheduled: they are
        session-relative, so the caller starts them after the launch.
        """
        scenario = cls.__new__(cls)
        scenario._connect(
            world,
            profile,
            config,
            RngFactory(seed).child(f"client-{index}"),
            tag=f"c{index}",
            hosts=(index + 10, index + 10),
        )
        return scenario

    def _connect(
        self,
        world: World,
        profile: NetworkProfile,
        config: ScenarioConfig,
        rng_factory: RngFactory,
        tag: str,
        hosts: tuple[int, int],
    ) -> None:
        """Wire this client's access into ``world``.

        ``tag`` prefixes the random-stream labels (``<tag>.wifi``) and
        the link and interface names (``<tag>-wlan0``); ``hosts`` are
        the last octets of the WiFi and LTE addresses.
        """
        self.profile = profile
        self.config = config
        self.rng_factory = rng_factory
        self.env = world.env
        self.network = world.network
        self.resolver = world.resolver
        self.catalog = world.catalog
        self.deployment = world.deployment
        self.video = world.catalog.get(config.video_id)

        stream = f"{tag}." if tag else ""
        name = f"{tag}-" if tag else ""
        # Access links and interfaces (index 0 = WiFi, 1 = LTE).
        self.wifi_link = Link(
            self.env,
            profile.wifi.bandwidth_process(rng_factory, f"{stream}wifi"),
            name=f"{name}wifi-link",
        )
        self.lte_link = Link(
            self.env,
            profile.lte.bandwidth_process(rng_factory, f"{stream}lte"),
            name=f"{name}lte-link",
        )
        self.wifi = NetworkInterface(
            self.env,
            name=f"{name}wlan0",
            kind="wifi",
            link=self.wifi_link,
            latency=profile.wifi.latency_process(rng_factory, f"{stream}wifi"),
            network_id=WIFI_NET,
            address=f"192.168.1.{hosts[0]}",
        )
        self.lte = NetworkInterface(
            self.env,
            name=f"{name}wwan0",
            kind="lte",
            link=self.lte_link,
            latency=profile.lte.latency_process(rng_factory, f"{stream}lte"),
            network_id=LTE_NET,
            address=f"10.54.3.{hosts[1]}",
        )

    # -- helpers ----------------------------------------------------------------

    def iface_for(self, index: int) -> NetworkInterface:
        """Path index → interface (0 = WiFi, the designated fast path)."""
        return (self.wifi, self.lte)[index]

    def path_specs(self, paths: int = 2) -> list[tuple[str, str]]:
        """``(iface_name, network_id)`` pairs for PlayerSession."""
        specs = [(self.wifi.name, WIFI_NET), (self.lte.name, LTE_NET)]
        return specs[:paths]

    def schedule_outages(self, delay: float = 0.0) -> None:
        """Start the profile's outage timers, ``delay`` seconds late.

        Outages are session-relative (a commuter walks out of WiFi range
        minutes into *their* session, not at world time t), so a
        population client passes its launch delay.
        """
        for outage in self.profile.outages:
            iface = self.wifi if outage.iface == "wifi" else self.lte

            def toggler(iface=iface, outage=outage):
                yield self.env.pooled_timeout(delay + outage.down_at)
                iface.set_up(False)
                yield self.env.pooled_timeout(outage.up_at - outage.down_at)
                iface.set_up(True)

            self.env.process(toggler())
