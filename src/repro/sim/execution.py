"""Trial execution engine: pluggable backends for i.i.d. trials.

The paper repeats every configuration 20 times (§5.2), and the
``(root_seed, config_label, trial_index)`` seed derivation makes those
repetitions *embarrassingly parallel*: a :class:`TrialSpec` carries
everything one trial needs — profile factory, scenario config, seed,
and a declarative driver spec — so it can be shipped to a worker
process and executed there bit-identically to a local run.

Backends:

* :class:`SerialEngine` — in-process, one trial after another;
* :class:`ProcessEngine` — ``concurrent.futures.ProcessPoolExecutor``
  with chunked dispatch; worker pools are shared across campaigns so a
  figure sweep pays the fork cost once; ``auto`` (via
  :func:`resolve_engine`) is a process engine sized to the machine.
  A spec that cannot be pickled (e.g. a hand-written closure factory)
  is refused with a :class:`~repro.errors.ConfigError` naming the
  declarative specs, whichever way the engine was asked for.

Every backend collects columnar (see :mod:`repro.sim.shm`): each
unit becomes a ``(dense_row, side)`` pair — its dense scalars as a
tuple in the spec kind's column order, and its ragged/string remainder
as a flat side record.  On the process backend each worker sends the
pair back through the pool pipe; in process
(:func:`collect_in_process`) it is built in place.  Either way the
parent fills the columns from the rows with one helper,
:func:`~repro.sim.shm.collect_units`.

Determinism is the acceptance bar: ``engine.collect(specs)`` returns
the columns and side records in spec order, and every trial derives its
randomness from its own seed, so parallel collections are
byte-identical to serial ones for the same root seed.  Select a backend
with ``Study(...).run(jobs=...)``, ``repro experiment --jobs N``, or the
``REPRO_JOBS`` environment variable (``N``, ``auto``, or ``serial``);
:func:`resolve_engine` turns any of those into an engine.

The engines are generic over the :class:`WorkSpec` protocol, not tied
to per-trial specs: a spec kind supplies its own execution, dense
column layout and row, side-channel encoding, and the batch class its
rows are assembled into.  There are three kinds: ``TrialSpec`` (one
player session per unit), ``repro.ext.population.PopulationSpec`` (one
whole multi-client population per unit) and
``repro.analysis.ablation.EstimatorTraceSpec`` (one estimator's walk
over the §3.3 burst trace per unit).
"""

from __future__ import annotations

import atexit
import operator
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from collections.abc import Callable, Sequence
from typing import Any, ClassVar, Protocol, runtime_checkable

from ..core.config import PlayerConfig
from ..errors import ConfigError
from .driver import MSPlayerDriver, SessionOutcome
from .profiles import NetworkProfile
from .scenario import Scenario, ScenarioConfig
from .shm import (
    DENSE_COLUMNS,
    ColumnLayout,
    OutcomeBatch,
    SideRecord,
    TrialCollection,
    collect_units,
    dense_row,
    encode_side,
)
from .singlepath import HTML5_CHUNK, SinglePathDriver


@runtime_checkable
class SessionDriver(Protocol):
    """What a trial executes: anything that runs to a SessionOutcome."""

    def run(self) -> SessionOutcome: ...


#: A driver factory: scenario -> a driver whose run() yields the outcome.
DriverFactory = Callable[[Scenario], SessionDriver]

#: Optional scenario mutation applied before the driver is built
#: (failure injection and the like).  Must be picklable — i.e. a
#: module-level function — to run on a process backend.
ScenarioHook = Callable[[Scenario], None]


# ---------------------------------------------------------------------------
# Declarative driver specs (picklable DriverFactory implementations)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MSPlayerSpec:
    """Declarative stand-in for an ``MSPlayerDriver`` factory closure."""

    config: PlayerConfig = field(default_factory=PlayerConfig)
    stop: str = "prebuffer"
    target_cycles: int = 3

    def __call__(self, scenario: Scenario) -> MSPlayerDriver:
        return MSPlayerDriver(
            scenario, config=self.config, stop=self.stop, target_cycles=self.target_cycles
        )


@dataclass(frozen=True)
class SinglePathSpec:
    """Factory spec for the fixed-chunk single-path baseline player."""

    iface_index: int = 0
    chunk_bytes: int = HTML5_CHUNK
    config: PlayerConfig = field(default_factory=PlayerConfig)
    stop: str = "prebuffer"
    target_cycles: int = 3

    def __call__(self, scenario: Scenario) -> SinglePathDriver:
        return SinglePathDriver(
            scenario,
            iface_index=self.iface_index,
            chunk_bytes=self.chunk_bytes,
            config=self.config,
            stop=self.stop,
            target_cycles=self.target_cycles,
        )


@dataclass(frozen=True)
class MPTCPLikeSpec:
    """Factory spec for the single-server MPTCP-like baseline (EXP-X2)."""

    config: PlayerConfig = field(default_factory=PlayerConfig)
    stop: str = "prebuffer"
    target_cycles: int = 3

    def __call__(self, scenario: Scenario) -> SessionDriver:
        # Imported lazily: repro.baselines.mptcp itself imports from
        # repro.sim, and a module-level import would close that cycle.
        from ..baselines.mptcp import MPTCPLikeDriver

        return MPTCPLikeDriver(
            scenario, config=self.config, stop=self.stop, target_cycles=self.target_cycles
        )


# ---------------------------------------------------------------------------
# Trial specs and the worker entry point
# ---------------------------------------------------------------------------


class WorkSpec(Protocol):
    """What any engine executes: a self-contained, picklable work unit.

    There are three kinds: :class:`TrialSpec` (one player session per
    unit), :class:`~repro.ext.population.PopulationSpec` (one whole
    multi-client population per unit) and
    :class:`~repro.analysis.ablation.EstimatorTraceSpec` (one
    estimator's trace walk per unit).  The engine itself is agnostic —
    a spec kind brings its own execution (:meth:`run`), its own dense
    column layout (``dense_columns``) and the row of plain scalars it
    stores there (:meth:`dense_row`, one value per column, in order),
    its own side-channel encoding (:meth:`encode_side`), and the batch
    class a label's collected rows are assembled into (``batch``, whose
    ``from_dense_and_sides(dense, sides)`` the campaign calls).
    """

    label: str
    #: Class-level column layout shared by every spec of this kind.
    dense_columns: ColumnLayout
    #: Class-level batch class shared by every spec of this kind.
    batch: type

    def run(self) -> object: ...

    def dense_row(self, result: object) -> tuple: ...

    def encode_side(self, result: object) -> object: ...


@dataclass(frozen=True)
class TrialSpec:
    """Everything one (configuration, trial) pair needs, self-contained."""

    label: str
    trial: int
    seed: int
    profile_factory: Callable[[], NetworkProfile]
    driver: DriverFactory
    scenario_config: ScenarioConfig = field(default_factory=ScenarioConfig)
    scenario_hook: ScenarioHook | None = None

    #: Column layout and batch class (class-level; see :class:`WorkSpec`).
    dense_columns: ClassVar[ColumnLayout] = DENSE_COLUMNS
    batch: ClassVar[type] = OutcomeBatch

    def run(self) -> SessionOutcome:
        """Execute this trial start to finish (the pool work unit)."""
        scenario = Scenario(
            self.profile_factory(), seed=self.seed, config=self.scenario_config
        )
        if self.scenario_hook is not None:
            self.scenario_hook(scenario)
        return self.driver(scenario).run()

    def dense_row(self, result: SessionOutcome) -> tuple:
        return dense_row(result)

    def encode_side(self, result: SessionOutcome) -> SideRecord:
        return encode_side(result)


def encode_unit(spec: WorkSpec, result: object) -> tuple:
    """One unit's ``(dense_row, side)`` pair."""
    return spec.dense_row(result), spec.encode_side(result)


def run_unit(spec: WorkSpec) -> tuple:
    """The pool work unit: run the spec and return its
    ``(dense_row, side)`` pair — what travels back through the pool
    pipe."""
    return encode_unit(spec, spec.run())


def _dense_layout(specs: Sequence[WorkSpec]) -> ColumnLayout:
    """The one column layout a collected batch shares (an empty batch
    collects as per-trial columns)."""
    if not specs:
        return DENSE_COLUMNS
    # Instance access on purpose: the WorkSpec protocol only promises
    # the attribute is readable on instances (the built-in kinds
    # declare it as a ClassVar, but a conforming third-party spec may
    # carry it per instance).
    columns = specs[0].dense_columns
    if any(spec.dense_columns != columns for spec in specs):
        raise ConfigError(
            "a collected batch must share one dense column layout; "
            "run heterogeneous spec kinds as separate campaigns"
        )
    return columns


def collect_in_process(
    specs: Sequence[WorkSpec], results: Sequence | None = None
) -> TrialCollection:
    """Collect work units in this process, columnar.

    Runs each spec (or takes its result from ``results``, what a
    map-only engine returned) and encodes it through the same spec
    methods a pool worker calls, so every engine hands the campaign
    the same columns.
    """
    specs = list(specs)
    if results is None:
        units = (run_unit(spec) for spec in specs)
    else:
        units = (
            encode_unit(spec, result)
            for spec, result in zip(specs, results, strict=True)
        )
    return collect_units(units, _dense_layout(specs))


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


class ExecutionEngine(Protocol):
    """Collects work specs columnar, preserving spec order."""

    name: str
    jobs: int

    def collect(self, specs: Sequence[WorkSpec]) -> TrialCollection: ...


class SerialEngine:
    """Run every work unit in-process, one after another."""

    name = "serial"
    jobs = 1

    def collect(self, specs: Sequence[WorkSpec]) -> TrialCollection:
        return collect_in_process(specs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SerialEngine()"


#: Shared worker pools, keyed by worker count.  Reusing the pool across
#: submissions (every cell of a study, every study of a process) means
#: the fork cost is paid once, not once per submission.
_POOLS: dict[int, ProcessPoolExecutor] = {}


def _shared_pool(workers: int) -> ProcessPoolExecutor:
    pool = _POOLS.get(workers)
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=workers)
        _POOLS[workers] = pool
    return pool


def _evict_pool(workers: int) -> None:
    """Drop a dead executor from the cache so later campaigns re-fork.

    A ``BrokenProcessPool`` is permanent for the executor that raised
    it: every subsequent submit fails.  Leaving it cached would poison
    every later campaign at this worker count.
    """
    pool = _POOLS.pop(workers, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


@atexit.register
def _shutdown_pools() -> None:  # pragma: no cover - interpreter teardown
    for pool in _POOLS.values():
        pool.shutdown(wait=False, cancel_futures=True)
    _POOLS.clear()


def _worker_count(jobs: Any) -> int:
    """``jobs`` as an integer worker count: ``2.5`` is not silently two
    workers, and NaN or infinity is a :class:`ConfigError`, not a raw
    ``ValueError``/``OverflowError`` from ``int()``."""
    try:
        return operator.index(jobs)
    except TypeError:
        raise ConfigError(f"jobs must be an integer worker count, got {jobs!r}") from None


class ProcessEngine:
    """Fan trials out over a process pool with chunked dispatch.

    ``jobs`` workers, or one per CPU when it is ``None`` or 0.  Specs
    that cannot be pickled (hand-written closure factories) are
    refused, with a pointer at the declarative specs, so the
    misconfiguration is loud.
    """

    name = "process"

    def __init__(self, jobs: int | None = None) -> None:
        count = 0 if jobs is None else _worker_count(jobs)
        self.jobs = count or (os.cpu_count() or 1)
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")

    def collect(self, specs: Sequence[WorkSpec]) -> TrialCollection:
        """Run the batch and collect it columnar.

        On the pool, each worker sends its units' ``(dense_row, side)``
        pairs back through the pipe.  A batch with nothing to fan out
        (one spec, one job) is collected in process instead — into the
        same columns.
        """
        specs = list(specs)
        if len(specs) <= 1 or self.jobs == 1:
            return collect_in_process(specs)
        # A configuration is homogeneous (one driver spec, one hook, one
        # profile factory), but a *campaign* batch interleaves several
        # configurations — so probe one representative per label, which
        # still decides for all at ~configs/len(specs) of the full
        # serialization cost.
        probes: dict[str, WorkSpec] = {}
        for spec in specs:
            probes.setdefault(spec.label, spec)
        for probe in probes.values():
            try:
                pickle.dumps(probe)
            except Exception as exc:
                raise ConfigError(
                    f"trial specs for {probe.label!r} are not picklable ({exc}); "
                    "use declarative driver specs (MSPlayerSpec / SinglePathSpec / "
                    "MPTCPLikeSpec) and module-level scenario hooks, or run serially"
                ) from None
        # Chunked dispatch: ~4 chunks per active worker balances IPC
        # overhead against tail latency from uneven trial durations.
        active = min(self.jobs, len(specs))
        chunksize = max(1, -(-len(specs) // (active * 4)))
        columns = _dense_layout(specs)  # a mixed batch fails before dispatch
        units = self._pool_map(run_unit, specs, chunksize)
        return collect_units(units, columns)

    def _pool_map(self, fn, items: list, chunksize: int) -> list:
        # The pool is sized (and keyed) by self.jobs, not the batch:
        # idle workers are harmless, and campaigns with varying trial
        # counts then reuse one pool instead of forking per count.
        try:
            pool = _shared_pool(self.jobs)
            return list(pool.map(fn, items, chunksize=chunksize))
        except BrokenProcessPool:
            # The cached pool died (a worker was killed, or a previous
            # campaign broke it).  Evict it and retry once on a fresh
            # fork — trials are pure functions of their spec, so a
            # rerun is safe.  A second break means the specs themselves
            # kill workers; evict again and let it propagate.
            _evict_pool(self.jobs)
            try:
                pool = _shared_pool(self.jobs)
                return list(pool.map(fn, items, chunksize=chunksize))
            except BrokenProcessPool:
                _evict_pool(self.jobs)
                raise

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProcessEngine(jobs={self.jobs})"


def resolve_engine(jobs: int | str | ExecutionEngine | None = None) -> ExecutionEngine:
    """Turn a ``--jobs`` / ``REPRO_JOBS``-style value into an engine.

    * ``None`` — consult ``REPRO_JOBS``; unset means serial;
    * ``"serial"`` / ``1`` — in-process execution;
    * ``"auto"`` / ``"process"`` / ``0`` — one worker per CPU;
    * ``N`` / ``"N"`` — a process pool of N workers (an integer: ``2.5``
      or NaN is a :class:`ConfigError`);
    * ``"service"`` — the distributed study backend
      (:class:`repro.serve.engine.ServiceEngine`; broker URL from
      ``REPRO_BROKER``) — ``Study.run`` ships whole studies to it
      instead of collecting specs;
    * an engine instance — passed through unchanged (anything with
      ``collect``, or a map-only engine that
      :func:`~repro.sim.shm.collect_trials` encodes itself).
    """
    if jobs is None:
        jobs = os.environ.get("REPRO_JOBS") or "serial"
    if not isinstance(jobs, (int, str)) and (
        hasattr(jobs, "collect") or hasattr(jobs, "map")
    ):
        return jobs
    if isinstance(jobs, str):
        token = jobs.strip().lower()
        if token in ("", "serial", "1"):
            return SerialEngine()
        if token in ("auto", "0", "process"):
            return ProcessEngine()
        if token == "service":
            # Imported lazily: repro.serve builds on the study layer,
            # which itself imports this module.
            from ..serve.engine import ServiceEngine

            return ServiceEngine()
        try:
            jobs = int(token)
        except ValueError:
            raise ConfigError(
                f"unknown jobs value {token!r}; expected an integer, 'auto', "
                "'serial', or 'service'"
            ) from None
    jobs = _worker_count(jobs)
    if jobs == 0:
        return ProcessEngine()
    if jobs == 1:
        return SerialEngine()
    return ProcessEngine(jobs)
