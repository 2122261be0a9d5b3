"""Shared-memory outcome collection: arena, engine collection, crash cleanup.

The shm path is the process backend's only collection path, so its
acceptance bar is byte-identity with a serial run — plus a lifecycle
guarantee: however a campaign ends (cleanly, one broken pool,
two broken pools), no ``/dev/shm`` segment survives it and the resource
tracker has nothing to complain about at interpreter exit.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
from conftest import assert_batches_identical
from repro.core.config import PlayerConfig
from repro.sim.campaign import Campaign, OutcomeBatch
from repro.sim.execution import ProcessEngine, SerialEngine
from repro.sim.profiles import testbed_profile
from repro.sim.runner import TrialRunner
from repro.sim.scenario import ScenarioConfig
from repro.sim.shm import ARENA_PREFIX, OutcomeArena, collect_trials

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

SHM_DIR = "/dev/shm"

needs_dev_shm = pytest.mark.skipif(
    not os.path.isdir(SHM_DIR), reason="no /dev/shm to inspect on this platform"
)


def _arena_segments() -> set[str]:
    return {f for f in os.listdir(SHM_DIR) if f.startswith(ARENA_PREFIX)}


def short_config() -> ScenarioConfig:
    return ScenarioConfig(video_duration_s=120.0)


def _runner() -> TrialRunner:
    return TrialRunner(testbed_profile, scenario_config=short_config(), trials=4)


def _run(engine, label: str, scenario_hook=None):
    """Four short MSPlayer trials, run as a one-configuration campaign."""
    runner = _runner()
    campaign = Campaign().add_run(
        runner, label, runner.msplayer(PlayerConfig()), scenario_hook
    )
    return campaign.run(engine)[label]


def _kill_worker(scenario) -> None:
    """Module-level (picklable) hook that hard-kills the worker."""
    os._exit(13)


class TestArenaLifecycle:
    @needs_dev_shm
    def test_create_write_destroy(self):
        before = _arena_segments()
        arena = OutcomeArena.create(3)
        assert arena.name.startswith(ARENA_PREFIX)
        created = _arena_segments() - before
        assert len(created) == 1
        arena.destroy()
        assert _arena_segments() == before

    @needs_dev_shm
    def test_destroy_is_idempotent(self):
        arena = OutcomeArena.create(1)
        arena.destroy()
        arena.destroy()  # second destroy of an unlinked arena: no-op

    def test_zero_row_arena_supported(self):
        # A campaign never collects zero specs through shm, but the
        # arena must not trip on the degenerate size (segments of zero
        # bytes are invalid at the OS level).
        arena = OutcomeArena.create(0)
        try:
            assert all(len(col) == 0 for col in arena.read_columns().values())
        finally:
            arena.destroy()

    def test_attach_sees_writes(self):
        serial = SerialEngine()
        runner = _runner()
        outcomes = serial.map(runner.specs_for("att", runner.msplayer(PlayerConfig())))
        arena = OutcomeArena.create(len(outcomes))
        attached = None
        try:
            attached = OutcomeArena.attach(arena.name, len(outcomes))
            for i, outcome in enumerate(outcomes):
                attached.write(i, outcome)
            dense = arena.read_columns()
            assert dense["finished_at"].tolist() == [o.finished_at for o in outcomes]
            assert dense["failovers"].tolist() == [
                o.metrics.failovers for o in outcomes
            ]
        finally:
            if attached is not None:
                attached.close()
            arena.destroy()


class TestEngineCollection:
    """collect() shapes, laziness, and byte-identity with serial."""

    def test_serial_conditions_are_not_columnar(self):
        engine = ProcessEngine(2)
        runner = _runner()
        specs = runner.specs_for("one", runner.msplayer(PlayerConfig()))[:1]
        collection = engine.collect(specs)  # single spec: in-process path
        assert not collection.columnar
        assert len(collection) == 1

    def test_shm_collection_is_columnar_and_lazy(self):
        engine = ProcessEngine(2)
        runner = _runner()
        specs = runner.specs_for("col", runner.msplayer(PlayerConfig()))
        collection = engine.collect(specs)
        assert collection.columnar
        assert collection._outcomes is None  # nothing materialized yet
        reference = SerialEngine().map(specs)
        assert collection.outcomes == reference  # deep dataclass equality
        assert collection._outcomes is not None

    def test_map_identical_to_serial(self):
        runner = _runner()
        specs = runner.specs_for("modes", runner.msplayer(PlayerConfig()))
        assert ProcessEngine(2).map(specs) == SerialEngine().map(specs)

    @pytest.mark.parametrize(
        "variable,value", [("REPRO_IPC", "pickle"), ("REPRO_KERNEL", "calendar")]
    )
    def test_retired_selection_variables_change_nothing(self, variable, value, monkeypatch):
        runner = _runner()
        specs = runner.specs_for("retired", runner.msplayer(PlayerConfig()))
        reference = SerialEngine().map(specs)
        monkeypatch.setenv(variable, value)
        collection = ProcessEngine(2).collect(specs)
        assert collection.columnar
        assert collection.outcomes == reference
        assert SerialEngine().map(specs) == reference

    def test_auto_fallback_for_closures_is_not_columnar(self):
        from repro.sim.driver import MSPlayerDriver

        def closure_factory(scenario):
            return MSPlayerDriver(scenario, PlayerConfig(), stop="prebuffer")

        engine = ProcessEngine(2, fallback_to_serial=True)
        runner = _runner()
        collection = engine.collect(runner.specs_for("cl", closure_factory))
        assert not collection.columnar
        assert len(collection) == 4

    def test_collect_trials_wraps_plain_engines(self):
        runner = _runner()
        specs = runner.specs_for("wrap", runner.msplayer(PlayerConfig()))
        collection = collect_trials(SerialEngine(), specs)
        assert not collection.columnar
        assert collection.outcomes == SerialEngine().map(specs)

    def test_campaign_shm_results_preassembled_and_lazy(self):
        result = _run(ProcessEngine(2), "lazy")
        # The batch came straight off the arena columns...
        assert result._batch is not None
        assert result._outcomes is None
        # ...and equals the object-built batch exactly.
        serial = _run(SerialEngine(), "lazy")
        assert_batches_identical(result.batch, serial.batch)
        # Walking .outcomes materializes and matches, and the batch
        # cache survives (same length, no rebuild).
        assert result.outcomes == serial.outcomes
        assert result._batch is not None
        assert_batches_identical(
            OutcomeBatch.from_outcomes(result.outcomes), result.batch
        )


class TestCrashCleanup:
    """Worker crashes must not leak segments — and retries still work."""

    JOBS = 2

    @needs_dev_shm
    def test_crash_unlinks_all_segments_and_fresh_pool_recovers(self):
        from concurrent.futures.process import BrokenProcessPool

        from repro.sim import execution

        before = _arena_segments()
        engine = ProcessEngine(self.JOBS)
        # Killer specs break the fresh retry pool too: the engine
        # re-raises, but the arena (both attempts') must be gone.
        with pytest.raises(BrokenProcessPool):
            _run(engine, "killer", _kill_worker)
        assert _arena_segments() == before
        assert self.JOBS not in execution._POOLS

        # The same engine keeps working on a fresh fork, byte-identical
        # to a serial run.
        healthy = _run(engine, "healthy")
        reference = _run(SerialEngine(), "healthy")
        assert healthy.outcomes == reference.outcomes
        assert _arena_segments() == before

    @needs_dev_shm
    def test_single_break_retry_reuses_arena_and_cleans_up(self, monkeypatch):
        """First map attempt dies on a simulated broken pool; the retry
        rewrites every arena row on a fresh fork and the caller sees
        correct results with no leftover segments."""
        from concurrent.futures.process import BrokenProcessPool

        from repro.sim import execution

        class _BrokenOnce:
            def map(self, fn, specs, chunksize=1):
                raise BrokenProcessPool("simulated dead executor")

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setitem(execution._POOLS, self.JOBS, _BrokenOnce())
        before = _arena_segments()
        result = _run(ProcessEngine(self.JOBS), "recovered")
        reference = _run(SerialEngine(), "recovered")
        assert result.outcomes == reference.outcomes
        assert _arena_segments() == before

    def test_no_resource_tracker_leak_warnings(self):
        """A fresh interpreter that crashes a campaign mid-flight and
        then runs a healthy one must exit with a clean stderr — no
        ``resource_tracker`` "leaked shared_memory objects" warnings,
        no stray tracebacks from tracker bookkeeping."""
        code = (
            "import os, sys\n"
            "from concurrent.futures.process import BrokenProcessPool\n"
            "from repro.core.config import PlayerConfig\n"
            "from repro.sim.campaign import Campaign\n"
            "from repro.sim.execution import ProcessEngine\n"
            "from repro.sim.profiles import testbed_profile\n"
            "from repro.sim.runner import TrialRunner\n"
            "from repro.sim.scenario import ScenarioConfig\n"
            "def kill(scenario):\n"
            "    os._exit(13)\n"
            "runner = TrialRunner(testbed_profile,\n"
            "    scenario_config=ScenarioConfig(video_duration_s=120.0), trials=4)\n"
            "engine = ProcessEngine(2)\n"
            "driver = runner.msplayer(PlayerConfig())\n"
            "try:\n"
            "    Campaign().add_run(runner, 'killer', driver, kill).run(engine)\n"
            "except BrokenProcessPool:\n"
            "    pass\n"
            "else:\n"
            "    sys.exit(3)\n"
            "healthy = Campaign().add_run(runner, 'healthy', driver).run(engine)['healthy']\n"
            "assert len(healthy.outcomes) == 4\n"
            "print('OK')\n"
        )
        env = {**os.environ, "PYTHONPATH": SRC_DIR}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert "OK" in proc.stdout
        for marker in ("leaked shared_memory", "resource_tracker", "Traceback"):
            assert marker not in proc.stderr, proc.stderr

