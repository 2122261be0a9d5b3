"""Columnar outcome collection: arena, engine collection, crash cleanup.

Every engine — serial, the process pool and its in-process exits, a
third-party engine with only ``map`` — hands the campaign the same
columns, so the acceptance bar is byte-identity with the batches
assembled from the live result objects (``tests/object_batches.py``),
for every spec kind.  The shared-memory arena adds a lifecycle
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
from object_batches import (
    estimator_batch_from_outcomes,
    outcome_batch_from_outcomes,
    population_batch_from_results,
)
from repro.analysis.ablation import EstimatorCampaign, EstimatorTraceSpec
from repro.core.config import PlayerConfig
from repro.ext.multi_client import MultiClientExperiment
from repro.ext.population import PopulationCampaign
from repro.sim.campaign import Campaign
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


class MapOnlyEngine:
    """A third-party engine: ``map`` and nothing else."""

    name = "map-only"
    jobs = 1

    def map(self, specs):
        return [spec.run() for spec in specs]


class TestEngineCollection:
    """collect() shapes, laziness, and byte-identity with serial."""

    def test_in_process_collection_never_touches_dev_shm(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("in-process collection created a shared segment")

        runner = _runner()
        specs = runner.specs_for("local", runner.msplayer(PlayerConfig()))
        reference = SerialEngine().map(specs)
        monkeypatch.setattr(OutcomeArena, "create", refuse)
        for collection in (
            SerialEngine().collect(specs),
            ProcessEngine(2).collect(specs[:1]),  # one spec: nothing to fan out
            ProcessEngine(1).collect(specs),  # one job
            collect_trials(MapOnlyEngine(), specs),
        ):
            assert collection.outcomes == reference[: len(collection)]

    def test_shm_collection_is_columnar_and_lazy(self):
        engine = ProcessEngine(2)
        runner = _runner()
        specs = runner.specs_for("col", runner.msplayer(PlayerConfig()))
        collection = engine.collect(specs)
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
        assert collection.outcomes == reference
        assert SerialEngine().map(specs) == reference

    def test_auto_fallback_for_closures_collects_in_process(self, monkeypatch):
        from repro.sim.driver import MSPlayerDriver

        def closure_factory(scenario):
            return MSPlayerDriver(scenario, PlayerConfig(), stop="prebuffer")

        engine = ProcessEngine(2, fallback_to_serial=True)
        runner = _runner()
        specs = runner.specs_for("cl", closure_factory)
        reference = SerialEngine().map(specs)
        monkeypatch.setattr(OutcomeArena, "create", None)  # no segment either
        collection = engine.collect(specs)
        assert len(collection) == 4
        assert collection.outcomes == reference

    def test_collect_trials_wraps_plain_engines(self):
        runner = _runner()
        specs = runner.specs_for("wrap", runner.msplayer(PlayerConfig()))
        collection = collect_trials(MapOnlyEngine(), specs)
        serial = SerialEngine().collect(specs)
        assert collection.dense.keys() == serial.dense.keys()
        for name, column in serial.dense.items():
            assert collection.dense[name].tobytes() == column.tobytes(), name
        assert collection.sides == serial.sides
        assert collection.outcomes == SerialEngine().map(specs)

    def test_campaign_shm_results_preassembled_and_lazy(self):
        result = _run(ProcessEngine(2), "lazy")
        # The batch came straight off the arena columns...
        assert result._outcomes is None
        # ...and equals the serial run's and the object-built batch exactly.
        serial = _run(SerialEngine(), "lazy")
        assert_batches_identical(result.batch, serial.batch)
        assert result.outcomes == serial.outcomes
        assert_batches_identical(
            outcome_batch_from_outcomes(result.outcomes), result.batch
        )


def _trial_batches() -> list[list]:
    runner = _runner()
    configs = {"harmonic": PlayerConfig(), "ewma": PlayerConfig(scheduler="ewma")}
    return [runner.specs_for(label, runner.msplayer(c)) for label, c in configs.items()]


def _population_batches() -> list[list]:
    experiment = MultiClientExperiment(
        testbed_profile, client_count=2, video_duration_s=60.0, seed=5
    )
    return [experiment.specs_for(policy, 2) for policy in ("static", "rotate")]


def _estimator_batches() -> list[list]:
    return [
        [
            EstimatorTraceSpec(label=name, trial=trial, seed=trial, estimator=name, samples=60)
            for trial in range(2)
        ]
        for name in ("harmonic", "ewma")
    ]


#: Each spec kind: its campaign, its spec batches, the object-built
#: oracle batch, and the result attribute holding the rebuilt objects.
SPEC_KINDS = [
    pytest.param(Campaign, _trial_batches, outcome_batch_from_outcomes, "outcomes", id="trial"),
    pytest.param(
        PopulationCampaign, _population_batches, population_batch_from_results, "results",
        id="population",
    ),
    pytest.param(
        EstimatorCampaign, _estimator_batches, estimator_batch_from_outcomes, "outcomes",
        id="estimator",
    ),
]

ENGINES = [
    pytest.param(SerialEngine, id="serial"),
    pytest.param(lambda: ProcessEngine(2), id="process-2"),
    pytest.param(lambda: ProcessEngine(3), id="process-3"),
    pytest.param(MapOnlyEngine, id="map-only"),
]


@pytest.mark.parametrize("make_engine", ENGINES)
@pytest.mark.parametrize("campaign_kind, spec_batches, oracle, objects", SPEC_KINDS)
def test_every_engine_collects_the_object_built_batch(
    campaign_kind, spec_batches, oracle, objects, make_engine
):
    """The one collection path, for every spec kind on every engine:
    bit-identical to the batch assembled from the live result objects,
    and the lazily rebuilt objects equal the live ones."""
    batches = spec_batches()
    campaign = campaign_kind()
    for batch in batches:
        campaign.add(batch)
    results = campaign.run(make_engine())
    for batch in batches:
        expected = [spec.run() for spec in batch]
        got = results[batch[0].label]
        assert_batches_identical(got.batch, oracle(expected))
        assert getattr(got, objects) == expected


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

