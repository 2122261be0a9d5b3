"""Scenario construction and network profiles."""

import ast
import math
from pathlib import Path

import pytest

import repro
from repro.cdn.catalog import Catalog
from repro.cdn.videos import VideoMeta
from repro.errors import ConfigError
from repro.rng import RngFactory
from repro.sim.profiles import (
    InterfaceProfile,
    OutageEvent,
    mobility_profile,
    testbed_profile,
    youtube_profile,
)
from repro.sim.scenario import LTE_NET, WIFI_NET, Scenario, ScenarioConfig, World
from repro.units import mbit


class TestProfiles:
    def test_theta_in_paper_band(self):
        # §6: LTE RTTs were 2–3x WiFi.
        for profile in (testbed_profile(), youtube_profile()):
            assert 2.0 <= profile.theta <= 3.0

    def test_wifi_faster_than_lte(self):
        for profile in (testbed_profile(), youtube_profile()):
            assert profile.wifi.mean_mbps > profile.lte.mean_mbps

    def test_youtube_profile_burstier(self):
        testbed, youtube = testbed_profile(), youtube_profile()
        assert youtube.wifi.sigma > testbed.wifi.sigma
        assert youtube.wifi.markov_states and not testbed.wifi.markov_states

    def test_mobility_profile_carries_outage(self):
        profile = mobility_profile(wifi_down_at=5.0, wifi_up_at=15.0)
        assert profile.outages == (OutageEvent("wifi", 5.0, 15.0),)

    def test_outage_window_validated(self):
        with pytest.raises(ConfigError):
            OutageEvent("wifi", 10.0, 5.0)

    def test_bandwidth_process_mean_matches(self):
        profile = testbed_profile()
        process = profile.wifi.bandwidth_process(RngFactory(1), "wifi")
        assert process.mean_rate == pytest.approx(mbit(profile.wifi.mean_mbps), rel=1e-6)

    def test_interface_profile_validation(self):
        with pytest.raises(ConfigError):
            InterfaceProfile(kind="wifi", mean_mbps=0.0, sigma=0.1, rho=0.5, one_way_delay_s=0.01)

    def test_with_override(self):
        profile = testbed_profile().with_(name="custom")
        assert profile.name == "custom"
        assert profile.wifi == testbed_profile().wifi


class TestScenario:
    def test_builds_two_networks_of_servers(self):
        scenario = Scenario(testbed_profile(), seed=1)
        for network_id in (WIFI_NET, LTE_NET):
            pool = scenario.deployment.pools[network_id]
            assert len(pool.proxy_hosts) == 1
            assert len(pool.video_hosts) == testbed_profile().video_servers_per_network

    def test_dns_answers_per_network(self):
        scenario = Scenario(testbed_profile(), seed=1)
        wifi = scenario.resolver.resolve_now("www.youtube.example", WIFI_NET)
        lte = scenario.resolver.resolve_now("www.youtube.example", LTE_NET)
        assert wifi != lte

    def test_video_in_catalog(self):
        scenario = Scenario(
            testbed_profile(), seed=1, config=ScenarioConfig(video_id="abcdefghijk")
        )
        assert "abcdefghijk" in scenario.catalog

    def test_iface_for_order(self):
        scenario = Scenario(testbed_profile(), seed=1)
        assert scenario.iface_for(0).kind == "wifi"
        assert scenario.iface_for(1).kind == "lte"

    def test_path_specs(self):
        scenario = Scenario(testbed_profile(), seed=1)
        assert scenario.path_specs(1) == [("wlan0", WIFI_NET)]
        assert len(scenario.path_specs(2)) == 2

    def test_outage_toggles_interface(self):
        profile = mobility_profile(wifi_down_at=1.0, wifi_up_at=2.0)
        scenario = Scenario(profile, seed=1)
        assert scenario.wifi.is_up
        scenario.env.run(until=1.5)
        assert not scenario.wifi.is_up
        scenario.env.run(until=2.5)
        assert scenario.wifi.is_up

    def test_duration_validated(self):
        for duration in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ConfigError):
                ScenarioConfig(video_duration_s=duration)

    def test_same_seed_same_world(self):
        a = Scenario(youtube_profile(), seed=4)
        b = Scenario(youtube_profile(), seed=4)
        # Stochastic components draw identically.
        assert a.rng_factory.generator("x").random() == b.rng_factory.generator("x").random()


class TestWorld:
    def world(self) -> World:
        catalog = Catalog()
        catalog.add(VideoMeta(video_id="sharedVIDEO", title="t", author="a", duration_s=30.0))
        return World(testbed_profile(), catalog, "rotate", 2, RngFactory(1).generator("cdn"))

    def test_joined_clients_share_the_world_and_own_their_access(self):
        world = self.world()
        config = ScenarioConfig(video_duration_s=30.0, video_id="sharedVIDEO")
        a = Scenario.join(world, testbed_profile(), 7, 0, config)
        b = Scenario.join(world, youtube_profile(), 7, 3, config)
        for client in (a, b):
            assert client.env is world.env
            assert client.deployment is world.deployment
            assert client.resolver is world.resolver
            assert client.video is world.catalog.get("sharedVIDEO")
        assert (b.wifi.name, b.lte.name) == ("c3-wlan0", "c3-wwan0")
        assert (b.wifi_link.name, b.lte_link.name) == ("c3-wifi-link", "c3-lte-link")
        assert (b.wifi.address, b.lte.address) == ("192.168.1.13", "10.54.3.13")
        assert a.wifi_link is not b.wifi_link
        assert b.profile.name == "youtube"

    def test_a_trial_keeps_its_own_names(self):
        scenario = Scenario(testbed_profile(), seed=1)
        assert (scenario.wifi.name, scenario.lte.name) == ("wlan0", "wwan0")
        assert (scenario.wifi_link.name, scenario.lte_link.name) == ("wifi-link", "lte-link")
        assert (scenario.wifi.address, scenario.lte.address) == ("192.168.1.23", "10.54.3.99")
        assert scenario.video.title == "Testbed HD clip"


def test_one_module_wires_worlds():
    """Deployments, resolvers and interfaces are built in ``repro.sim.scenario``
    and nowhere else under ``src/``."""
    package = Path(repro.__file__).parent
    builders = {"CDNDeployment", "StubResolver", "NetworkInterface"}
    wiring = set()
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in builders:
                wiring.add(path.relative_to(package).as_posix())
    assert wiring == {"sim/scenario.py"}
