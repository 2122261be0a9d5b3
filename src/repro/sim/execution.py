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
  figure sweep pays the fork cost once;
* ``auto`` (via :func:`resolve_engine`) — a process engine sized to the
  machine that silently falls back to serial when a spec cannot be
  pickled (e.g. a hand-written closure factory).

Every backend collects columnar (see :mod:`repro.sim.shm`): each
unit's dense scalar columns land in an arena at the unit's row index
and the ragged/string remainder becomes a flat side record.  On the
process backend the arena is ``multiprocessing.shared_memory`` the
workers write in place, with only the side records pickled back
through the pool pipe; in process (:func:`collect_in_process`) it is
private memory.

Determinism is the acceptance bar: ``engine.map(specs)`` returns
outcomes in spec order, and every trial derives its randomness from its
own seed, so parallel results are byte-identical to serial ones for the
same root seed.  Select a backend with ``Study(...).run(jobs=...)``,
``repro experiment --jobs N``, or the ``REPRO_JOBS`` environment
variable (``N``, ``auto``, or ``serial``); :func:`resolve_engine` turns
any of those into an engine.

The engines are generic over the :class:`WorkSpec` protocol, not tied
to per-trial specs: a spec kind supplies its own execution, dense arena
layout, side-channel encoding, and rebuild inverse.  ``TrialSpec`` (one
player session per unit) and ``repro.ext.population.PopulationSpec``
(one whole multi-client population per unit) are the two kinds.
"""

from __future__ import annotations

import atexit
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import partial
from collections.abc import Callable, Sequence
from typing import ClassVar, Protocol, runtime_checkable

from ..core.config import PlayerConfig
from ..errors import ConfigError
from .driver import MSPlayerDriver, SessionOutcome
from .profiles import NetworkProfile
from .scenario import Scenario, ScenarioConfig
from .shm import (
    DENSE_COLUMNS,
    ColumnLayout,
    OutcomeArena,
    SideRecord,
    TrialCollection,
    encode_side,
    rebuild_outcomes,
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

    Per-trial campaigns use :class:`TrialSpec` (one player session per
    unit); population campaigns use
    :class:`~repro.ext.population.PopulationSpec` (one whole
    multi-client population per unit).  The engine itself is agnostic —
    a spec kind brings its own execution (:meth:`run`), its own dense
    arena layout (``dense_columns`` / :meth:`write_dense`), its own
    side-channel encoding (:meth:`encode_side`), and the inverse that
    materializes result objects from a columnar collection
    (:meth:`rebuild`).
    """

    label: str
    #: Class-level arena layout shared by every spec of this kind.
    dense_columns: ColumnLayout

    def run(self) -> object: ...

    def write_dense(self, arena: OutcomeArena, row: int, result: object) -> None: ...

    def encode_side(self, result: object) -> object: ...

    @staticmethod
    def rebuild(dense: dict, sides: Sequence) -> list: ...


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

    #: Arena layout for collection (class-level; see :class:`WorkSpec`).
    dense_columns: ClassVar[ColumnLayout] = DENSE_COLUMNS

    def run(self) -> SessionOutcome:
        """Execute this trial start to finish (the pool work unit)."""
        scenario = Scenario(
            self.profile_factory(), seed=self.seed, config=self.scenario_config
        )
        if self.scenario_hook is not None:
            self.scenario_hook(scenario)
        return self.driver(scenario).run()

    def write_dense(
        self, arena: OutcomeArena, row: int, result: SessionOutcome
    ) -> None:
        arena.write(row, result)

    def encode_side(self, result: SessionOutcome) -> SideRecord:
        return encode_side(result)

    @staticmethod
    def rebuild(dense: dict, sides: Sequence[SideRecord]) -> list[SessionOutcome]:
        return rebuild_outcomes(dense, sides)


#: Worker-side arena attachment cache, keyed by segment name.  A worker
#: serves one campaign at a time, so a task naming a new arena means the
#: cached ones belong to finished (already unlinked) campaigns — close
#: them before attaching, keeping exactly one live mapping per worker.
_WORKER_ARENAS: dict[str, OutcomeArena] = {}


def _attached_arena(name: str, rows: int, columns: ColumnLayout) -> OutcomeArena:
    arena = _WORKER_ARENAS.get(name)
    if arena is None:
        for stale in _WORKER_ARENAS.values():
            stale.close()
        _WORKER_ARENAS.clear()
        arena = OutcomeArena.attach(name, rows, columns)
        _WORKER_ARENAS[name] = arena
    return arena


def run_unit_into_arena(
    arena_name: str, rows: int, item: tuple[int, WorkSpec]
) -> object:
    """The pool work unit: run the spec, store its dense scalars
    at its row of the shared arena (whose layout the spec kind
    declares), return only the ragged/string remainder through the
    pool pipe."""
    index, spec = item
    result = spec.run()
    arena = _attached_arena(arena_name, rows, spec.dense_columns)
    spec.write_dense(arena, index, result)
    return spec.encode_side(result)


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
    map-only engine returned) and passes it through the two spec
    methods a pool worker calls: ``write_dense`` into a private-memory
    arena and ``encode_side``.  So every engine hands the campaign the
    same columns, and a serial run never touches ``/dev/shm``.
    """
    specs = list(specs)
    arena = OutcomeArena.local(len(specs), _dense_layout(specs))
    sides = []
    for row, spec in enumerate(specs):
        result = spec.run() if results is None else results[row]
        spec.write_dense(arena, row, result)
        sides.append(spec.encode_side(result))
    rebuild = specs[0].rebuild if specs else rebuild_outcomes
    return TrialCollection(arena.read_columns(), sides, rebuild)


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


class ExecutionEngine(Protocol):
    """Maps work specs to their results, preserving spec order."""

    name: str
    jobs: int

    def map(self, specs: Sequence[WorkSpec]) -> list: ...


class SerialEngine:
    """Run every work unit in-process, one after another."""

    name = "serial"
    jobs = 1

    def map(self, specs: Sequence[WorkSpec]) -> list:
        return [spec.run() for spec in specs]

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


class ProcessEngine:
    """Fan trials out over a process pool with chunked dispatch.

    ``fallback_to_serial`` is the ``auto`` behaviour: specs that cannot
    be pickled (hand-written closure factories) run serially instead of
    erroring.  An explicitly requested process engine raises, with a
    pointer at the declarative specs, so the misconfiguration is loud.
    """

    def __init__(self, jobs: int | None = None, fallback_to_serial: bool = False) -> None:
        self.jobs = int(jobs) if jobs else (os.cpu_count() or 1)
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        self.fallback_to_serial = fallback_to_serial
        self.name = "auto" if fallback_to_serial else "process"

    def map(self, specs: Sequence[WorkSpec]) -> list:
        return self.collect(specs).outcomes

    def collect(self, specs: Sequence[WorkSpec]) -> TrialCollection:
        """Run the batch and collect it columnar.

        On the pool, workers write dense rows into a shared arena and
        send side records back.  A batch with nothing to fan out (one
        spec, one job) or, under ``auto``, an unpicklable one is
        collected in process instead — into the same columns.
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
                if self.fallback_to_serial:
                    return collect_in_process(specs)
                raise ConfigError(
                    f"trial specs for {probe.label!r} are not picklable ({exc}); "
                    "use declarative driver specs (MSPlayerSpec / SinglePathSpec / "
                    "MPTCPLikeSpec) and module-level scenario hooks, or run serially"
                ) from None
        # Chunked dispatch: ~4 chunks per active worker balances IPC
        # overhead against tail latency from uneven trial durations.
        active = min(self.jobs, len(specs))
        chunksize = max(1, -(-len(specs) // (active * 4)))
        # The parent sizes the arena from the spec count (and
        # the spec kind's column layout), the workers write dense rows
        # in place, and only the side records come back through the
        # pipe.  The arena is destroyed (closed + unlinked) in the
        # ``finally`` whatever happens — including a BrokenProcessPool
        # that survives _pool_map's fresh-pool retry — so worker
        # crashes cannot leak /dev/shm segments.  The retry itself
        # reuses the arena: every row is rewritten.
        arena = OutcomeArena.create(len(specs), _dense_layout(specs))
        try:
            work = partial(run_unit_into_arena, arena.name, len(specs))
            sides = self._pool_map(work, list(enumerate(specs)), chunksize)
            dense = arena.read_columns()
        finally:
            arena.destroy()
        return TrialCollection(dense, sides, specs[0].rebuild)

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
        return f"ProcessEngine(jobs={self.jobs}, name={self.name!r})"


def resolve_engine(jobs: int | str | ExecutionEngine | None = None) -> ExecutionEngine:
    """Turn a ``--jobs`` / ``REPRO_JOBS``-style value into an engine.

    * ``None`` — consult ``REPRO_JOBS``; unset means serial;
    * ``"serial"`` / ``1`` — in-process execution;
    * ``"auto"`` / ``0`` — one worker per CPU, serial fallback for
      unpicklable specs;
    * ``N`` / ``"N"`` — a process pool of N workers;
    * ``"service"`` — the distributed study backend
      (:class:`repro.serve.engine.ServiceEngine`; broker URL from
      ``REPRO_BROKER``) — ``Study.run`` ships whole studies to it
      instead of mapping specs;
    * an engine instance — passed through unchanged.
    """
    if jobs is None:
        jobs = os.environ.get("REPRO_JOBS") or "serial"
    if not isinstance(jobs, (int, str)) and hasattr(jobs, "map"):
        # Any ExecutionEngine implementation, not just the built-ins.
        return jobs
    if isinstance(jobs, str):
        token = jobs.strip().lower()
        if token in ("", "serial", "1"):
            return SerialEngine()
        if token in ("auto", "0", "process"):
            return ProcessEngine(fallback_to_serial=True)
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
    if jobs == 0:
        return ProcessEngine(fallback_to_serial=True)
    if jobs == 1:
        return SerialEngine()
    return ProcessEngine(jobs)
