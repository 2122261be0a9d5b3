"""The scenarios package: arrivals, mixes, churn timelines, SLOs.

Unit coverage for the declarative ingredients plus a small end-to-end
:class:`~repro.scenarios.experiment.ScenarioExperiment` run.  The
hypothesis properties pin the arrival process's contract: sorted,
in-horizon, exactly-``count`` launch times that are a pure function of
the seed.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.rng import RngFactory
from repro.scenarios import (
    ArrivalSpec,
    ChurnSpec,
    ClientClass,
    DiurnalCurve,
    FlashCrowd,
    MixSpec,
    ScenarioExperiment,
    population_slo,
    thinned_arrival_times,
)
from repro.scenarios.churn import (
    PathDegradation,
    ServerBrownout,
    ServerCrash,
    schedule_churn,
)
from repro.sim.campaign import Campaign
from repro.sim.scenario import LTE_NET, WIFI_NET
from repro.study import Study


class TestDiurnalCurve:
    def test_rate_oscillates_between_one_and_peak(self):
        curve = DiurnalCurve(amplitude=2.0, period_s=60.0, phase=0.5)
        rates = [curve.rate(t) for t in range(0, 61, 5)]
        assert min(rates) >= 1.0 - 1e-12
        assert max(rates) <= curve.peak_rate + 1e-12
        assert curve.peak_rate == pytest.approx(3.0)

    def test_flat_curve_is_homogeneous(self):
        curve = DiurnalCurve(amplitude=0.0)
        assert curve.rate(0.0) == curve.rate(17.3) == 1.0


class TestArrivals:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        count=st.integers(min_value=1, max_value=64),
        amplitude=st.floats(min_value=0.0, max_value=8.0),
        horizon=st.floats(min_value=1.0, max_value=600.0),
    )
    def test_times_sorted_in_horizon_exact_count(
        self, seed, count, amplitude, horizon
    ):
        spec = ArrivalSpec(
            horizon_s=horizon, curve=DiurnalCurve(amplitude=amplitude)
        )
        times = spec.times(seed, count)
        assert len(times) == count
        assert times == sorted(times)
        assert all(0.0 <= t < horizon for t in times)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        count=st.integers(min_value=1, max_value=64),
    )
    def test_times_are_seed_deterministic(self, seed, count):
        spec = ArrivalSpec(horizon_s=45.0, curve=DiurnalCurve(amplitude=1.5))
        assert spec.times(seed, count) == spec.times(seed, count)

    @settings(max_examples=25, deadline=None)
    @given(
        rng_seed=st.integers(min_value=0, max_value=2**31 - 1),
        amplitude=st.floats(min_value=0.0, max_value=8.0),
    )
    def test_thinning_bounds(self, rng_seed, amplitude):
        curve = DiurnalCurve(amplitude=amplitude, period_s=30.0)
        rng = RngFactory(rng_seed).generator("test.thinning")
        times = thinned_arrival_times(rng, curve, horizon_s=30.0, count=32)
        assert len(times) == 32
        assert times == sorted(times)
        assert all(0.0 <= t < 30.0 for t in times)

    def test_flash_crowd_claims_its_share(self):
        spec = ArrivalSpec(
            horizon_s=60.0,
            flash_crowds=(FlashCrowd(at_s=20.0, clients=5, width_s=2.0),),
        )
        times = spec.times(7, 8)
        in_burst = [t for t in times if 20.0 <= t <= 22.0]
        assert len(in_burst) >= 5
        assert len(times) == 8

    def test_crowds_larger_than_population_rejected(self):
        spec = ArrivalSpec(
            horizon_s=60.0,
            flash_crowds=(FlashCrowd(at_s=5.0, clients=10),),
        )
        with pytest.raises(ConfigError, match="claim"):
            spec.times(1, 4)

    def test_seed_changes_the_times(self):
        spec = ArrivalSpec(horizon_s=30.0)
        assert spec.times(1, 16) != spec.times(2, 16)


class TestMix:
    def test_weights_must_be_positive(self):
        with pytest.raises(ConfigError):
            ClientClass("broken", weight=0.0)

    def test_unknown_driver_rejected(self):
        with pytest.raises(ConfigError, match="driver"):
            ClientClass("broken", weight=1.0, driver="quantum")

    def test_assignment_is_deterministic_and_complete(self):
        mix = MixSpec(catalog_size=6)
        factory = RngFactory(42)
        catalog = mix.build_catalog(factory)
        assignments = mix.assign(RngFactory(42), 24, catalog)
        again = mix.assign(RngFactory(42), 24, catalog)
        assert assignments == again
        assert [a.index for a in assignments] == list(range(24))
        names = {c.name for c in mix.classes}
        assert {a.client_class for a in assignments} <= names
        video_ids = set(catalog.ids())
        assert {a.video_id for a in assignments} <= video_ids

    def test_zipf_skew_prefers_popular_videos(self):
        mix = MixSpec(catalog_size=12, zipf_s=1.6)
        factory = RngFactory(7)
        catalog = mix.build_catalog(factory)
        assignments = mix.assign(RngFactory(7), 400, catalog)
        counts: dict[str, int] = {}
        for a in assignments:
            counts[a.video_id] = counts.get(a.video_id, 0) + 1
        # With s=1.6 over 12 titles, the head title should clearly beat
        # the uniform share.
        assert max(counts.values()) > 400 / 12 * 2


class TestChurn:
    def test_timeline_sorted_and_deterministic(self):
        spec = ChurnSpec(brownouts=3, crashes=2, degradations=2)
        events = spec.timeline(11, networks=(WIFI_NET, LTE_NET), hosts_per_network=3)
        assert events == spec.timeline(
            11, networks=(WIFI_NET, LTE_NET), hosts_per_network=3
        )
        starts = [e.start_s for e in events]
        assert starts == sorted(starts)
        assert len(events) == 7
        for event in events:
            assert spec.window_start_s <= event.start_s < event.end_s

    def test_empty_spec_yields_no_events(self):
        assert ChurnSpec().timeline(5, (WIFI_NET,), 2) == ()

    def test_invalid_windows_rejected(self):
        with pytest.raises(ConfigError):
            ServerBrownout(WIFI_NET, 0, start_s=10.0, end_s=5.0)
        with pytest.raises(ConfigError):
            ServerCrash(WIFI_NET, 0, start_s=-1.0, end_s=5.0)
        with pytest.raises(ConfigError):
            PathDegradation("wifi", start_s=3.0, end_s=3.0)

    def test_brownout_lowers_and_restores_threshold(self):
        from repro.cdn.catalog import Catalog
        from repro.cdn.deployment import CDNConfig, CDNDeployment
        from repro.cdn.videos import VideoMeta
        from repro.net.dns import StubResolver
        from repro.net.env import Environment
        from repro.net.topology import Network

        env = Environment()
        network = Network(env)
        catalog = Catalog()
        catalog.add(VideoMeta("vid01234567", "t", "a", 60.0))
        deployment = CDNDeployment(
            env,
            network,
            catalog,
            CDNConfig(
                networks=(WIFI_NET, LTE_NET),
                video_servers_per_network=1,
                overload_threshold=4,
            ),
            rng=RngFactory(3).generator("cdn"),
            resolver=StubResolver(env),
        )
        host = deployment.pools[WIFI_NET].video_hosts[0]
        before = host.app.overload_threshold
        events = [
            ServerBrownout(WIFI_NET, 0, start_s=1.0, end_s=2.0, threshold=0)
        ]
        schedule_churn(env, deployment, events)
        env.run(until=1.5)
        assert host.app.overload_threshold == 0
        env.run(until=3.0)
        assert host.app.overload_threshold == before

    def test_crash_fails_and_recovers_host(self):
        from repro.cdn.catalog import Catalog
        from repro.cdn.deployment import CDNConfig, CDNDeployment
        from repro.cdn.videos import VideoMeta
        from repro.net.dns import StubResolver
        from repro.net.env import Environment
        from repro.net.topology import Network

        env = Environment()
        network = Network(env)
        catalog = Catalog()
        catalog.add(VideoMeta("vid01234567", "t", "a", 60.0))
        deployment = CDNDeployment(
            env,
            network,
            catalog,
            CDNConfig(networks=(WIFI_NET,), video_servers_per_network=1),
            rng=RngFactory(3).generator("cdn"),
            resolver=StubResolver(env),
        )
        host = deployment.pools[WIFI_NET].video_hosts[0]
        schedule_churn(
            env, deployment, [ServerCrash(WIFI_NET, 0, start_s=1.0, end_s=2.0)]
        )
        env.run(until=1.5)
        assert not host.up
        env.run(until=3.0)
        assert host.up


class TestScenarioExperiment:
    def test_small_population_end_to_end(self):
        experiment = ScenarioExperiment(
            arrivals=ArrivalSpec(horizon_s=10.0),
            mix=MixSpec(catalog_size=4),
            churn=ChurnSpec(crashes=1, window_start_s=2.0, window_end_s=8.0),
            client_count=4,
            seed=123,
        )
        result = experiment.run("rotate")
        assert len(result.outcomes) == 4
        assert sum(result.server_bytes.values()) > 0

    def test_refused_first_bootstrap_does_not_abort_the_population(self):
        """x9 at seed 16140: the crash window opens while a client's
        first bootstrap is warming its connection to the crashed server.
        The refusal used to escape ``env.run`` as SourcesExhaustedError
        and lose every session; the client must instead drop that path
        and play over the other interface."""
        result = Study(
            "x9", replicates=1, clients=45, policies=("least_loaded",), seed=16140
        ).run(jobs="serial")
        assert not result.errors
        columns = result.only().columns["least_loaded"]
        assert columns["sessions"].tolist() == [45]
        assert columns["completed"].tolist() == [45]

    def test_specs_are_picklable(self):
        experiment = ScenarioExperiment(client_count=3, seed=9)
        specs = experiment.specs_for("static", replicates=2)
        assert len(specs) == 2
        revived = pickle.loads(pickle.dumps(specs))
        assert [s.seed for s in revived] == [s.seed for s in specs]

    def test_replicate_seeds_are_policy_independent(self):
        experiment = ScenarioExperiment(client_count=2, seed=5)
        static = experiment.specs_for("static", replicates=3)
        rotate = experiment.specs_for("rotate", replicates=3)
        assert [s.seed for s in static] == [s.seed for s in rotate]
        assert len({s.seed for s in static}) == 3

    def test_unknown_world_profile_rejected(self):
        with pytest.raises(ConfigError, match="profile"):
            ScenarioExperiment(world_profile="atlantis")


class TestSLO:
    def test_population_slo_panel(self):
        experiment = ScenarioExperiment(
            arrivals=ArrivalSpec(horizon_s=8.0),
            mix=MixSpec(catalog_size=4),
            client_count=4,
            seed=31,
        )
        population = Campaign().add(experiment.specs_for("rotate", 2)).run()
        slo = population_slo(population["rotate"].batch)
        assert slo.sessions == 8
        assert 0 < slo.completed <= 8
        assert slo.p50_startup_s <= slo.p95_startup_s <= slo.p99_startup_s
        assert 0.0 <= slo.rebuffer_ratio < 1.0
        assert slo.failover_rate >= 0.0
        assert slo.imbalance_max >= slo.imbalance_mean >= 1.0
        assert slo.completion_rate == slo.completed / slo.sessions
        as_dict = slo.as_dict()
        assert as_dict["sessions"] == 8
        assert set(as_dict) >= {
            "p50_startup_s",
            "p95_startup_s",
            "p99_startup_s",
            "rebuffer_ratio",
            "failover_rate",
            "imbalance_mean",
            "imbalance_max",
        }
