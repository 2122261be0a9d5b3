"""Columnar outcome collection: arena, engine collection, crash recovery.

Every engine — serial, the process pool and its in-process exits, an
engine with only ``map`` — hands the campaign the same columns and side
records, so the acceptance bar is byte-identity with the batches
assembled from the live result objects (``tests/object_batches.py``)
and side records equal to the specs' own encoding of those objects,
for every spec kind.  Pool workers send each unit's dense row back
through the pipe with its side record, so no shared memory is
involved: however a campaign ends (cleanly, one broken pool, two
broken pools), the next one runs on a fresh fork and the interpreter
exits with a clean stderr.
"""

from __future__ import annotations

import ast
import io
import os
import pathlib
import re
import subprocess
import sys
import tokenize
from multiprocessing import shared_memory

import numpy as np
import pytest

import repro
from conftest import assert_batches_identical, assert_collected
from object_batches import (
    estimator_batch_from_outcomes,
    outcome_batch_from_outcomes,
    population_batch_from_results,
)
from repro.analysis.ablation import EstimatorBatch, EstimatorTraceSpec
from repro.core.config import PlayerConfig
from repro.errors import ConfigError
from repro.ext.multi_client import MultiClientExperiment
from repro.ext.population import PopulationBatch
from repro.sim.campaign import Campaign
from repro.sim import execution
from repro.sim.execution import ProcessEngine, SerialEngine, WorkSpec
from repro.sim.profiles import testbed_profile
from repro.sim.runner import TrialRunner
from repro.sim.scenario import ScenarioConfig
from repro.sim.shm import (
    DENSE_COLUMNS,
    OutcomeArena,
    OutcomeBatch,
    collect_trials,
    encode_side,
)

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def short_config() -> ScenarioConfig:
    return ScenarioConfig(video_duration_s=120.0)


def _runner() -> TrialRunner:
    return TrialRunner(testbed_profile, scenario_config=short_config(), trials=4)


def _specs(label: str) -> list:
    """Four short MSPlayer trials of one configuration."""
    runner = _runner()
    return runner.specs_for(label, runner.msplayer(PlayerConfig()))


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
    def test_create_write_destroy(self):
        outcomes = [spec.run() for spec in _specs("arena")]
        arena = OutcomeArena.create(len(outcomes))
        for i, outcome in enumerate(outcomes):
            arena.write(i, outcome)
        dense = arena.read_columns()
        arena.destroy()
        # The copies outlive the arena, in the layout's names and dtypes.
        assert [(name, column.dtype) for name, column in dense.items()] == [
            (name, dtype) for name, dtype in DENSE_COLUMNS
        ]
        assert dense["finished_at"].tolist() == [o.finished_at for o in outcomes]
        assert dense["failovers"].tolist() == [o.metrics.failovers for o in outcomes]

    def test_destroy_is_idempotent(self):
        arena = OutcomeArena.create(1)
        arena.destroy()
        arena.destroy()  # second destroy of a released arena: no-op

    def test_zero_row_arena_supported(self):
        # A campaign never collects zero specs through the pool, but the
        # arena must not trip on the degenerate size.
        arena = OutcomeArena.create(0)
        try:
            assert all(len(col) == 0 for col in arena.read_columns().values())
        finally:
            arena.destroy()

    def test_write_row_refuses_a_row_of_the_wrong_width(self):
        arena = OutcomeArena.create(1)
        with pytest.raises(ValueError):
            arena.write_row(0, (1.0, 2.0, 3.0))


class MapOnlyEngine:
    """An engine with ``map`` and nothing else."""

    name = "map-only"
    jobs = 1

    def map(self, specs):
        return [spec.run() for spec in specs]


class TestEngineCollection:
    """collect() shapes and byte-identity with the workers' results."""

    def test_in_process_collection_never_starts_a_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("in-process collection reached for a worker pool")

        specs = _specs("local")
        reference = [spec.run() for spec in specs]
        monkeypatch.setattr(execution, "_shared_pool", refuse)
        for collection, count in (
            (SerialEngine().collect(specs), 4),
            (ProcessEngine(2).collect(specs[:1]), 1),  # one spec: nothing to fan out
            (ProcessEngine(1).collect(specs), 4),  # one job
            (collect_trials(MapOnlyEngine(), specs), 4),
        ):
            assert_collected(collection, specs[:count], reference[:count])

    def test_pool_collection_is_columnar(self):
        specs = _specs("col")
        collection = ProcessEngine(2).collect(specs)
        dense, sides = collection  # a plain (dense, sides) pair
        assert len(sides) == 4
        assert all(isinstance(column, np.ndarray) for column in dense.values())
        assert_collected(collection, specs, [spec.run() for spec in specs])

    def test_pool_collection_identical_to_serial(self):
        specs = _specs("modes")
        pooled, serial = ProcessEngine(2).collect(specs), SerialEngine().collect(specs)
        for name, column in serial.dense.items():
            assert pooled.dense[name].tobytes() == column.tobytes(), name
        assert pooled.sides == serial.sides

    @pytest.mark.parametrize(
        "variable,value", [("REPRO_IPC", "pickle"), ("REPRO_KERNEL", "calendar")]
    )
    def test_retired_selection_variables_change_nothing(self, variable, value, monkeypatch):
        specs = _specs("retired")
        reference = [spec.run() for spec in specs]
        monkeypatch.setenv(variable, value)
        assert_collected(ProcessEngine(2).collect(specs), specs, reference)
        assert_collected(SerialEngine().collect(specs), specs, reference)

    def test_auto_engine_refuses_closures_before_any_pool(self, monkeypatch):
        from repro.sim.driver import MSPlayerDriver

        def closure_factory(scenario):
            return MSPlayerDriver(scenario, PlayerConfig(), stop="prebuffer")

        # ``auto`` is the process engine sized to the machine; on two
        # CPUs it fans out, so it probes the specs and refuses them
        # exactly as an explicit process engine does.
        monkeypatch.setattr(execution.os, "cpu_count", lambda: 2)
        engine = execution.resolve_engine("auto")
        assert isinstance(engine, ProcessEngine) and engine.jobs == 2
        specs = _runner().specs_for("cl", closure_factory)
        monkeypatch.setattr(execution, "_shared_pool", None)  # no pool either
        with pytest.raises(ConfigError, match="'cl' are not picklable.*MSPlayerSpec"):
            engine.collect(specs)

    def test_collect_trials_wraps_plain_engines(self):
        specs = _specs("wrap")
        collection = collect_trials(MapOnlyEngine(), specs)
        assert_collected(collection, specs, [spec.run() for spec in specs])

    def test_built_in_engines_have_no_map(self):
        for engine in (SerialEngine(), ProcessEngine(2)):
            assert not hasattr(engine, "map")

    def test_campaign_pool_results_match_the_workers_results(self):
        result = _run(ProcessEngine(2), "pooled")
        serial = _run(SerialEngine(), "pooled")
        assert result == serial  # label, every column's bits, side records
        reference = [spec.run() for spec in _specs("pooled")]
        assert_batches_identical(outcome_batch_from_outcomes(reference), result.batch)
        assert result.sides == [encode_side(outcome) for outcome in reference]


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


#: Each spec kind: the batch class it names, its spec batches and the
#: object-built oracle batch.
SPEC_KINDS = [
    pytest.param(OutcomeBatch, _trial_batches, outcome_batch_from_outcomes, id="trial"),
    pytest.param(
        PopulationBatch, _population_batches, population_batch_from_results,
        id="population",
    ),
    pytest.param(
        EstimatorBatch, _estimator_batches, estimator_batch_from_outcomes,
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
@pytest.mark.parametrize("batch_kind, spec_batches, oracle", SPEC_KINDS)
def test_every_engine_collects_the_object_built_batch(
    batch_kind, spec_batches, oracle, make_engine
):
    """The one collection path, for every spec kind on every engine:
    bit-identical to the batch assembled from the live result objects,
    and side records equal to the specs' own encoding of them."""
    batches = spec_batches()
    campaign = Campaign()
    for batch in batches:
        assert all(spec.batch is batch_kind for spec in batch)
        campaign.add(batch)
    results = campaign.run(make_engine())
    specs = [spec for batch in batches for spec in batch]
    reference = [spec.run() for spec in specs]
    assert_collected(collect_trials(make_engine(), specs), specs, reference)
    for batch in batches:
        expected = [spec.run() for spec in batch]
        got = results[batch[0].label]
        assert type(got.batch) is batch_kind
        assert got.sides == [
            spec.encode_side(result) for spec, result in zip(batch, expected, strict=True)
        ]
        assert_batches_identical(got.batch, oracle(expected))
        # Each unit's dense row — what a pool worker sends through the
        # pipe — is plain scalars, stored bit for bit at its row.
        for row, (spec, result) in enumerate(zip(batch, expected, strict=True)):
            values = spec.dense_row(result)
            assert len(values) == len(spec.dense_columns)
            for (name, dtype), value in zip(spec.dense_columns, values, strict=True):
                assert type(value) in (float, int), (name, type(value))
                column = getattr(got.batch, name)
                assert column.dtype == dtype, name
                assert column[row : row + 1].tobytes() == np.array(
                    [value], dtype=dtype
                ).tobytes(), name


class TestCrashCleanup:
    """A worker crash breaks the pool; the dead pool is evicted and the
    next run forks a fresh one."""

    JOBS = 2

    def test_crash_evicts_the_pool_and_a_fresh_pool_recovers(self):
        from concurrent.futures.process import BrokenProcessPool

        engine = ProcessEngine(self.JOBS)
        # Killer specs break the fresh retry pool too: the engine
        # re-raises and leaves no dead pool cached.
        with pytest.raises(BrokenProcessPool):
            _run(engine, "killer", _kill_worker)
        assert self.JOBS not in execution._POOLS

        # The same engine keeps working on a fresh fork, byte-identical
        # to a serial run.
        healthy = _run(engine, "healthy")
        reference = _run(SerialEngine(), "healthy")
        assert healthy == reference
        assert_batches_identical(healthy.batch, reference.batch)

    def test_single_break_retry_reruns_the_batch(self, monkeypatch):
        """First map attempt dies on a simulated broken pool; the retry
        reruns the whole batch on a fresh fork and the caller sees
        correct results."""
        from concurrent.futures.process import BrokenProcessPool

        class _BrokenOnce:
            def map(self, fn, specs, chunksize=1):
                raise BrokenProcessPool("simulated dead executor")

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setitem(execution._POOLS, self.JOBS, _BrokenOnce())
        result = _run(ProcessEngine(self.JOBS), "recovered")
        reference = _run(SerialEngine(), "recovered")
        assert result == reference
        assert_batches_identical(result.batch, reference.batch)

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
            "assert len(healthy.sides) == 4\n"
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


class TestNoSharedMemory:
    """The pipe is the one transport: no segment, no tracker shim."""

    SOURCES = sorted(pathlib.Path(repro.__file__).parent.rglob("*.py"))
    RETIRED = {"multiprocessing.shared_memory", "multiprocessing.resource_tracker"}

    @staticmethod
    def _imports(tree: ast.AST) -> set[str]:
        names: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                names.add(node.module)
                names.update(f"{node.module}.{alias.name}" for alias in node.names)
        return names

    def test_no_module_imports_shared_memory_or_the_resource_tracker(self):
        assert self.SOURCES
        offenders = {
            str(path.relative_to(SRC_DIR)): sorted(found)
            for path in self.SOURCES
            if (found := self._imports(ast.parse(path.read_text(encoding="utf-8"))) & self.RETIRED)
        }
        assert offenders == {}

    def test_no_source_line_carries_a_lint_waiver(self):
        """Only comments count: the lint package's docstrings describe
        the waiver syntax without carrying one."""
        waiver = re.compile(r"#\s*replint:\s*disable")
        offenders = [
            f"{path.relative_to(SRC_DIR)}:{token.start[0]}"
            for path in self.SOURCES
            for token in tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline)
            if token.type == tokenize.COMMENT and waiver.search(token.string)
        ]
        assert offenders == []

    def test_pool_collects_identically_without_shared_memory(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a collection reached for shared memory")

        serial = _run(SerialEngine(), "no-shm")
        monkeypatch.setattr(shared_memory, "SharedMemory", refuse)
        pooled = _run(ProcessEngine(2), "no-shm")
        assert_batches_identical(pooled.batch, serial.batch)
        assert pooled.sides == serial.sides


class TestNoRebuildInverse:
    """A collected result is its columns and side records: no module
    turns them back into result objects."""

    SOURCES = TestNoSharedMemory.SOURCES

    @staticmethod
    def _defined_names(tree: ast.AST) -> set[str]:
        names: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.asname or node.name)
        return names

    def test_no_module_defines_a_rebuild_name(self):
        assert self.SOURCES
        offenders = {
            str(path.relative_to(SRC_DIR)): sorted(found)
            for path in self.SOURCES
            if (
                found := {
                    name
                    for name in self._defined_names(ast.parse(path.read_text(encoding="utf-8")))
                    if name.startswith("rebuild")
                }
            )
        }
        assert offenders == {}

    def test_work_spec_members_are_exactly_the_collection_surface(self):
        members = set(WorkSpec.__annotations__) | {
            name for name in vars(WorkSpec) if not name.startswith("_")
        }
        assert members == {
            "label", "dense_columns", "batch", "run", "dense_row", "encode_side"
        }
