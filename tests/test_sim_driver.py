"""End-to-end simulated sessions: MSPlayer driver, single-path, runner."""

import pytest

from repro.core.config import PlayerConfig
from repro.sim.campaign import Campaign
from repro.sim.driver import MSPlayerDriver
from repro.sim.profiles import mobility_profile, testbed_profile, youtube_profile
from repro.sim.runner import TrialRunner
from repro.sim.scenario import Scenario, ScenarioConfig
from repro.sim.singlepath import FLASH_CHUNK, HTML5_CHUNK, SinglePathDriver
from repro.units import KB, MB


def short_video(duration=120.0, **kwargs):
    return ScenarioConfig(video_duration_s=duration, **kwargs)


class TestMSPlayerPrebuffer:
    def test_prebuffer_run_completes(self):
        scenario = Scenario(testbed_profile(), seed=1, config=short_video())
        outcome = MSPlayerDriver(scenario, PlayerConfig(), stop="prebuffer").run()
        assert outcome.stop_reason == "prebuffer-complete"
        assert outcome.startup_delay is not None and outcome.startup_delay > 0

    def test_same_seed_reproduces_exactly(self):
        def run():
            scenario = Scenario(testbed_profile(), seed=99, config=short_video())
            return MSPlayerDriver(scenario, PlayerConfig(), stop="prebuffer").run()

        a, b = run(), run()
        assert a.startup_delay == b.startup_delay
        assert a.requests_by_path == b.requests_by_path

    def test_different_seeds_differ(self):
        delays = set()
        for seed in range(4):
            scenario = Scenario(testbed_profile(), seed=seed, config=short_video())
            delays.add(
                MSPlayerDriver(scenario, PlayerConfig(), stop="prebuffer").run().startup_delay
            )
        assert len(delays) > 1

    def test_both_paths_carry_traffic(self):
        scenario = Scenario(testbed_profile(), seed=3, config=short_video())
        outcome = MSPlayerDriver(scenario, PlayerConfig(), stop="prebuffer").run()
        fraction = outcome.metrics.traffic_fraction(0, "prebuffer")
        assert 0.0 < fraction < 1.0

    def test_wifi_bootstraps_before_lte(self):
        # theta > 1: the WiFi path's first video byte precedes LTE's.
        scenario = Scenario(testbed_profile(), seed=5, config=short_video())
        outcome = MSPlayerDriver(scenario, PlayerConfig(), stop="prebuffer").run()
        assert outcome.path_first_video_delay[0] < outcome.path_first_video_delay[1]

    def test_out_of_order_bounded(self):
        # The equal-completion-time design goal (§2): at most one
        # out-of-order chunk buffered.
        scenario = Scenario(testbed_profile(), seed=7, config=short_video())
        outcome = MSPlayerDriver(scenario, PlayerConfig(), stop="prebuffer").run()
        assert outcome.peak_out_of_order <= 1

    def test_faster_than_best_single_path(self):
        config = PlayerConfig()
        ms = MSPlayerDriver(
            Scenario(testbed_profile(), seed=11, config=short_video()), config, stop="prebuffer"
        ).run()
        wifi = SinglePathDriver(
            Scenario(testbed_profile(), seed=11, config=short_video()),
            0,
            HTML5_CHUNK,
            config,
            stop="prebuffer",
        ).run()
        assert ms.startup_delay < wifi.startup_delay

    def test_single_path_mode(self):
        config = PlayerConfig(max_paths=1)
        scenario = Scenario(testbed_profile(), seed=2, config=short_video())
        outcome = MSPlayerDriver(scenario, config, stop="prebuffer").run()
        assert outcome.stop_reason == "prebuffer-complete"
        assert set(outcome.requests_by_path) == {0}

    def test_copyrighted_video_decoder_detour(self):
        plain = Scenario(testbed_profile(), seed=21, config=short_video())
        crypt = Scenario(
            testbed_profile(), seed=21, config=short_video(copyrighted=True)
        )
        t_plain = MSPlayerDriver(plain, PlayerConfig(), stop="prebuffer").run()
        t_crypt = MSPlayerDriver(crypt, PlayerConfig(), stop="prebuffer").run()
        # Footnote 1: the decoder fetch happens after the JSON decode
        # and before the video connection, so it delays the first video
        # byte (π), not ψ.
        assert (
            t_crypt.path_first_video_delay[0] > t_plain.path_first_video_delay[0]
        )
        assert t_crypt.stop_reason == "prebuffer-complete"


class TestFullSessionsAndCycles:
    def test_cycles_stop_condition(self):
        scenario = Scenario(youtube_profile(), seed=31, config=short_video(duration=240.0))
        outcome = MSPlayerDriver(
            scenario, PlayerConfig(), stop="cycles", target_cycles=2
        ).run()
        assert outcome.stop_reason == "cycles-complete"
        assert len(outcome.metrics.completed_cycle_durations()) >= 2

    def test_full_short_session_finishes_playback(self):
        scenario = Scenario(testbed_profile(), seed=41, config=short_video(duration=60.0))
        outcome = MSPlayerDriver(scenario, PlayerConfig(), stop="full").run()
        assert outcome.stop_reason == "playback-finished"
        assert outcome.metrics.playback_finished_at is not None
        assert outcome.metrics.total_stall_time == pytest.approx(0.0, abs=0.5)

    def test_watchdog_bounds_runaway(self):
        scenario = Scenario(testbed_profile(), seed=5, config=short_video(duration=60.0))
        outcome = MSPlayerDriver(
            scenario, PlayerConfig(), stop="full", max_sim_time=1.0
        ).run()
        assert outcome.stop_reason == "timeout"


class TestRobustness:
    def test_wifi_outage_survived_by_failing_over_to_lte(self):
        profile = mobility_profile(wifi_down_at=6.0, wifi_up_at=30.0)
        scenario = Scenario(profile, seed=51, config=short_video(duration=90.0))
        outcome = MSPlayerDriver(scenario, PlayerConfig(), stop="full").run()
        assert outcome.stop_reason == "playback-finished"
        # LTE (path 1) carried the load during the outage.
        assert outcome.metrics.rebuffer_bytes_by_path.get(1, 0) > 0

    def test_video_server_crash_triggers_source_failover(self):
        scenario = Scenario(youtube_profile(), seed=61, config=short_video(duration=90.0))

        def crash():
            yield scenario.env.timeout(3.0)
            scenario.deployment.pools["wifi-net"].video_hosts[0].fail()

        scenario.env.process(crash())
        outcome = MSPlayerDriver(scenario, PlayerConfig(), stop="full").run()
        assert outcome.stop_reason == "playback-finished"
        assert outcome.metrics.failovers >= 1

    def test_single_path_baseline_dies_on_outage(self):
        profile = mobility_profile(wifi_down_at=2.0, wifi_up_at=200.0)
        scenario = Scenario(profile, seed=71, config=short_video(duration=90.0))
        outcome = SinglePathDriver(
            scenario, 0, HTML5_CHUNK, PlayerConfig(), stop="full"
        ).run()
        assert outcome.stop_reason.startswith("failed")


class TestSinglePathDriver:
    def test_prebuffer_one_large_chunk(self):
        # Commercial players fetch the pre-buffer as ONE range (§6).
        scenario = Scenario(testbed_profile(), seed=81, config=short_video())
        outcome = SinglePathDriver(
            scenario, 0, HTML5_CHUNK, PlayerConfig(), stop="prebuffer"
        ).run()
        assert outcome.requests_by_path[0] == 1

    def test_rebuffer_uses_fixed_chunks(self):
        scenario = Scenario(testbed_profile(), seed=82, config=short_video(duration=240.0))
        config = PlayerConfig()
        outcome = SinglePathDriver(
            scenario, 0, FLASH_CHUNK, config, stop="cycles", target_cycles=1
        ).run()
        # One cycle fetches ~20 s of video in 64 KB pieces: many requests.
        assert outcome.requests_by_path[0] > 10

    def test_larger_chunks_refill_faster(self):
        config = PlayerConfig()

        def refill_time(chunk):
            scenario = Scenario(
                testbed_profile(), seed=83, config=short_video(duration=240.0)
            )
            outcome = SinglePathDriver(
                scenario, 0, chunk, config, stop="cycles", target_cycles=2
            ).run()
            cycles = outcome.metrics.completed_cycle_durations()
            return sum(cycles) / len(cycles)

        assert refill_time(HTML5_CHUNK) < refill_time(FLASH_CHUNK)

    def test_lte_slower_than_wifi(self):
        config = PlayerConfig()
        results = {}
        for index in (0, 1):
            scenario = Scenario(testbed_profile(), seed=84, config=short_video())
            results[index] = SinglePathDriver(
                scenario, index, HTML5_CHUNK, config, stop="prebuffer"
            ).run().startup_delay
        assert results[0] < results[1]

    def test_invalid_stop_rejected(self):
        scenario = Scenario(testbed_profile(), seed=1, config=short_video())
        with pytest.raises(ValueError):
            SinglePathDriver(scenario, 0, HTML5_CHUNK, stop="whenever")


def _campaign_run(runner, label, make_driver):
    return Campaign().add_run(runner, label, make_driver).run()[label]


class TestTrialRunner:
    def test_runner_produces_requested_trials(self):
        runner = TrialRunner(testbed_profile, scenario_config=short_video(), trials=3)
        result = _campaign_run(runner, "ms", runner.msplayer(PlayerConfig(), stop="prebuffer"))
        assert len(result.sides) == 3
        assert len(result.startup_delays()) == 3

    def test_seed_derivation_stable(self):
        runner = TrialRunner(testbed_profile, trials=2, root_seed=5)
        assert runner.seed_for("a", 0) == TrialRunner(
            testbed_profile, trials=2, root_seed=5
        ).seed_for("a", 0)
        assert runner.seed_for("a", 0) != runner.seed_for("a", 1)
        assert runner.seed_for("a", 0) != runner.seed_for("b", 0)

    def test_traffic_fraction_helper(self):
        runner = TrialRunner(testbed_profile, scenario_config=short_video(), trials=2)
        result = _campaign_run(runner, "ms", runner.msplayer(PlayerConfig(), stop="prebuffer"))
        fractions = result.traffic_fractions(0, "prebuffer")
        assert len(fractions) == 2
        assert all(0.0 <= f <= 1.0 for f in fractions)
