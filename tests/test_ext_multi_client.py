"""Multi-client shared-CDN experiments."""

import pytest

from object_batches import population_batch_from_results
from repro.errors import ConfigError
from repro.ext.multi_client import MultiClientExperiment
from repro.ext.population import PopulationBatch
from repro.net.iface import NetworkInterface
from repro.sim.campaign import Campaign, TrialResult
from repro.sim.profiles import mobility_profile, testbed_profile


@pytest.fixture(scope="module")
def experiment():
    return MultiClientExperiment(
        testbed_profile,
        client_count=3,
        video_duration_s=90.0,
        overload_threshold=2,
        seed=11,
    )


class TestMultiClient:
    def test_all_clients_complete(self, experiment):
        result = experiment.run("static")
        assert len(result.outcomes) == 3
        assert len(result.startup_delays()) == 3

    def test_static_concentrates_load(self, experiment):
        result = experiment.run("static")
        # 4 video servers total, all traffic on 2 (one per network).
        zero_servers = [k for k, v in result.server_bytes.items() if v == 0]
        assert len(zero_servers) == 2
        assert result.load_imbalance > 1.5

    def test_rotate_spreads_load(self, experiment):
        static = experiment.run("static")
        rotate = experiment.run("rotate")
        assert rotate.load_imbalance < static.load_imbalance

    def test_clients_have_independent_links(self, experiment):
        # Different clients see different (seeded) link draws, so their
        # start-up delays differ.
        result = experiment.run("static")
        delays = result.startup_delays()
        assert len(set(round(d, 6) for d in delays)) > 1

    def test_reproducible(self):
        def run():
            return MultiClientExperiment(
                testbed_profile, client_count=2, video_duration_s=60.0, seed=5
            ).run("rotate")

        a, b = run(), run()
        assert sorted(a.startup_delays()) == sorted(b.startup_delays())
        assert a.server_bytes == b.server_bytes

    def test_zero_clients_rejected(self):
        with pytest.raises(ConfigError):
            MultiClientExperiment(testbed_profile, client_count=0)

    def test_profile_outages_follow_each_clients_launch(self, monkeypatch):
        """Outages are session-relative, as for a single trial: every
        client's WiFi walks out 20 s after *its* launch and is back 45 s
        after it."""
        toggles = []
        set_up = NetworkInterface.set_up

        def spy(iface, up):
            toggles.append((iface.name, up, iface.env.now))
            set_up(iface, up)

        monkeypatch.setattr(NetworkInterface, "set_up", spy)
        result = MultiClientExperiment(
            mobility_profile, client_count=3, video_duration_s=60.0, seed=5, stop="full"
        ).run("rotate")
        launches = [o.metrics.session_started_at for o in result.outcomes]
        assert len(set(launches)) == 3
        expected = []
        for index, launch in enumerate(launches):
            expected.append((f"c{index}-wlan0", False, launch + 20.0))
            expected.append((f"c{index}-wlan0", True, pytest.approx(launch + 45.0)))
        assert sorted(toggles, key=lambda t: (t[0], t[1])) == expected

    def test_imbalance_of_empty_result(self, experiment):
        from repro.ext.population import MultiClientResult

        assert MultiClientResult(policy="x").load_imbalance == 0.0


class TestCompare:
    """Policies compare through ``specs_for`` + one population campaign."""

    def test_returns_population_results_per_policy(self):
        experiment = MultiClientExperiment(
            testbed_profile, client_count=2, video_duration_s=60.0, seed=5
        )
        results = (
            Campaign()
            .add(experiment.specs_for("static", 2))
            .add(experiment.specs_for("rotate", 2))
            .run()
        )
        assert list(results) == ["static", "rotate"]
        for policy, result in results.items():
            # The spec kind names the batch: a plain campaign of
            # population specs yields per-policy population batches.
            assert isinstance(result, TrialResult)
            assert isinstance(result.batch, PopulationBatch)
            assert len(result.batch) == 2
            assert len(result.startup_delays()) == 4  # 2 replicates x 2 clients
            assert [side.policy for side in result.sides] == [policy, policy]

    def test_single_replicate_matches_direct_run_distribution(self):
        """One replicate in a campaign is one seeded ``run`` — same
        machinery, derived seed."""
        experiment = MultiClientExperiment(
            testbed_profile, client_count=2, video_duration_s=60.0, seed=5
        )
        compared = Campaign().add(experiment.specs_for("rotate", 1)).run()["rotate"]
        direct = MultiClientExperiment(
            testbed_profile,
            client_count=2,
            video_duration_s=60.0,
            seed=experiment.replicate_seed(0),
        ).run("rotate")
        assert experiment.specs_for("rotate", 1)[0].run() == direct
        assert compared.batch.column_mismatches(population_batch_from_results([direct])) == []
