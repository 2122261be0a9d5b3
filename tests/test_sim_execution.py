"""Trial execution engine: spec picklability, backends, determinism.

The acceptance bar for the process backend is *bit-identical* results:
the ``(root_seed, label, trial)`` seed derivation fully determines a
trial, so fanning trials out over worker processes must change nothing
about the outcomes — only the wall clock.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from functools import partial

import pytest

import repro
from conftest import study_result
from repro.core.config import PlayerConfig
from repro.errors import ConfigError
from repro.sim.campaign import Campaign
from repro.sim.execution import (
    MPTCPLikeSpec,
    MSPlayerSpec,
    ProcessEngine,
    SerialEngine,
    SinglePathSpec,
    TrialSpec,
    resolve_engine,
)
from repro.sim.profiles import mobility_profile, testbed_profile
from repro.sim.runner import TrialRunner
from repro.sim.scenario import ScenarioConfig
from repro.units import KB

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def short_config() -> ScenarioConfig:
    return ScenarioConfig(video_duration_s=120.0)


class TestSeedDerivation:
    def test_seed_for_is_stable_within_process(self):
        a = TrialRunner(testbed_profile, trials=2, root_seed=7)
        b = TrialRunner(testbed_profile, trials=2, root_seed=7)
        assert [a.seed_for("cfg", t) for t in range(5)] == [
            b.seed_for("cfg", t) for t in range(5)
        ]

    def test_seed_for_is_stable_across_processes(self):
        """The derivation must not depend on per-process state (hash
        randomization, import order): a fresh interpreter derives the
        same seeds, which is what makes process fan-out trustworthy."""
        code = (
            "from repro.sim.runner import TrialRunner\n"
            "from repro.sim.profiles import testbed_profile\n"
            "runner = TrialRunner(testbed_profile, root_seed=20141202)\n"
            "print([runner.seed_for('fig3/a', t) for t in range(4)])\n"
        )
        env = {**os.environ, "PYTHONPATH": SRC_DIR, "PYTHONHASHSEED": "random"}
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        runner = TrialRunner(testbed_profile, root_seed=20141202)
        assert out.stdout.strip() == str([runner.seed_for("fig3/a", t) for t in range(4)])

    def test_distinct_labels_and_trials_get_distinct_seeds(self):
        runner = TrialRunner(testbed_profile)
        seeds = {runner.seed_for(label, t) for label in ("a", "b") for t in range(10)}
        assert len(seeds) == 20


class TestSpecPicklability:
    def test_driver_specs_round_trip(self):
        config = PlayerConfig(scheduler="ratio", base_chunk_bytes=64 * KB)
        for spec in (
            MSPlayerSpec(config=config, stop="cycles", target_cycles=2),
            SinglePathSpec(iface_index=1, chunk_bytes=64 * KB, config=config),
            MPTCPLikeSpec(config=config),
        ):
            assert pickle.loads(pickle.dumps(spec)) == spec

    def test_trial_spec_round_trips_with_partial_profile(self):
        spec = TrialSpec(
            label="x1",
            trial=3,
            seed=99,
            profile_factory=partial(mobility_profile, wifi_down_at=15.0, wifi_up_at=75.0),
            driver=MSPlayerSpec(config=PlayerConfig(), stop="full"),
            scenario_config=short_config(),
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.label == spec.label and clone.seed == spec.seed
        assert clone.profile_factory().outages == spec.profile_factory().outages

    def test_spec_run_executes_one_trial(self):
        runner = TrialRunner(testbed_profile, scenario_config=short_config(), trials=1)
        spec = runner.specs_for("one", runner.msplayer(PlayerConfig()))[0]
        outcome = spec.run()
        assert outcome.stop_reason == "prebuffer-complete"
        assert outcome.startup_delay is not None


class TestEngineResolution:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert isinstance(resolve_engine(), SerialEngine)

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        engine = resolve_engine()
        assert isinstance(engine, ProcessEngine) and engine.jobs == 3

    def test_tokens(self):
        assert isinstance(resolve_engine("serial"), SerialEngine)
        assert isinstance(resolve_engine(1), SerialEngine)
        auto = resolve_engine("auto")
        assert isinstance(auto, ProcessEngine) and auto.fallback_to_serial
        assert resolve_engine("4").jobs == 4
        assert resolve_engine(0).fallback_to_serial

    def test_engine_instances_pass_through(self):
        engine = ProcessEngine(2)
        assert resolve_engine(engine) is engine

    def test_garbage_rejected(self):
        with pytest.raises(ConfigError):
            resolve_engine("several")

    def test_nonpositive_jobs_rejected(self):
        with pytest.raises(ConfigError):
            ProcessEngine(-2)


class TestSerialParallelEquivalence:
    def test_trial_runner_outcomes_identical(self):
        runner = TrialRunner(testbed_profile, scenario_config=short_config(), trials=4)
        campaign = Campaign().add_run(runner, "eq", runner.msplayer(PlayerConfig()))
        a = campaign.run(SerialEngine())["eq"]
        b = campaign.run(ProcessEngine(2))["eq"]
        assert a.startup_delays() == b.startup_delays()
        assert a.batch.finished_at.tobytes() == b.batch.finished_at.tobytes()
        assert a.sides == b.sides

    def test_fig3_mini_rendered_byte_identical(self):
        kwargs = dict(
            trials=3, prebuffers=(20.0,), chunks=(64 * KB,), schedulers=("harmonic", "ratio")
        )
        serial = study_result("fig3", "serial", **kwargs)
        parallel = study_result("fig3", 2, **kwargs)
        assert serial.rendered == parallel.rendered
        assert serial.raw == parallel.raw

    def test_fig5_mini_rendered_byte_identical(self):
        kwargs = dict(trials=2, rebuffers=(20.0,), target_cycles=1)
        serial = study_result("fig5", "serial", **kwargs)
        parallel = study_result("fig5", 2, **kwargs)
        assert serial.rendered == parallel.rendered

    def test_table1_mini_rendered_byte_identical(self):
        kwargs = dict(trials=2, durations=(20.0,))
        serial = study_result("table1", "serial", **kwargs)
        parallel = study_result("table1", 2, **kwargs)
        assert serial.rendered == parallel.rendered


def _kill_worker(scenario) -> None:
    """Scenario hook that hard-kills the worker process mid-trial.

    Module-level (picklable) so the spec reaches the pool; ``os._exit``
    bypasses cleanup exactly like an OOM kill would, which is what
    breaks a ``ProcessPoolExecutor`` permanently.
    """
    os._exit(13)


class TestBrokenPoolRecovery:
    """A dead executor must not poison the shared-pool cache."""

    JOBS = 2  # keyed into _POOLS; all assertions use this count

    def test_broken_pool_evicted_and_next_campaign_succeeds(self):
        from concurrent.futures.process import BrokenProcessPool

        from repro.sim import execution

        runner = TrialRunner(testbed_profile, scenario_config=short_config(), trials=4)
        engine = ProcessEngine(self.JOBS)
        # Specs that kill their worker break the fresh retry pool too,
        # so the engine re-raises — but must leave no dead pool behind.
        killer = Campaign().add_run(
            runner, "killer", runner.msplayer(PlayerConfig()), scenario_hook=_kill_worker
        )
        with pytest.raises(BrokenProcessPool):
            killer.run(engine)
        assert self.JOBS not in execution._POOLS

        # The same worker count must now work again on a fresh fork.
        healthy = (
            Campaign()
            .add_run(runner, "healthy", runner.msplayer(PlayerConfig()))
            .run(engine)["healthy"]
        )
        assert len(healthy.sides) == 4
        assert self.JOBS in execution._POOLS

    def test_single_break_retried_on_fresh_pool(self, monkeypatch):
        """First map attempt breaks, the retry succeeds: callers never
        see the exception and the cache holds a live pool again."""
        from concurrent.futures.process import BrokenProcessPool

        from repro.sim import execution

        class _BrokenOnce:
            def __init__(self):
                self.calls = 0

            def map(self, fn, specs, chunksize=1):
                self.calls += 1
                raise BrokenProcessPool("simulated dead executor")

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        broken = _BrokenOnce()
        monkeypatch.setitem(execution._POOLS, self.JOBS, broken)
        runner = TrialRunner(testbed_profile, scenario_config=short_config(), trials=4)
        result = (
            Campaign()
            .add_run(runner, "recovered", runner.msplayer(PlayerConfig()))
            .run(ProcessEngine(self.JOBS))["recovered"]
        )
        assert broken.calls == 1
        assert len(result.sides) == 4
        assert execution._POOLS.get(self.JOBS) is not broken


class TestClosureHandling:
    def test_process_engine_rejects_closures_loudly(self):
        runner = TrialRunner(testbed_profile, scenario_config=short_config(), trials=2)
        closure = Campaign().add_run(runner, "closure", lambda scenario: None)
        with pytest.raises(ConfigError, match="not picklable"):
            closure.run(ProcessEngine(2))

    def test_auto_engine_falls_back_to_serial_for_closures(self):
        from repro.sim.driver import MSPlayerDriver

        def closure_factory(scenario):
            return MSPlayerDriver(scenario, PlayerConfig(), stop="prebuffer")

        runner = TrialRunner(testbed_profile, scenario_config=short_config(), trials=2)
        a = (
            Campaign()
            .add_run(runner, "cl", closure_factory)
            .run(ProcessEngine(2, fallback_to_serial=True))["cl"]
        )
        b = (
            Campaign()
            .add_run(runner, "cl", runner.msplayer(PlayerConfig()))
            .run(SerialEngine())["cl"]
        )
        assert a.startup_delays() == b.startup_delays()
