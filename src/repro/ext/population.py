"""Population campaigns: whole multi-client populations as work units.

The paper's §2 source-diversity argument is operationally about
*populations* — many MSPlayer clients arriving together and stressing
the CDN's server selection.  This module runs them, one way for every
population experiment:

* :class:`PopulationExperiment` is the one population runner.  A
  subclass only *plans* its population — the world's profile and
  catalog, and per client a :class:`ClientPlan` (access profile, video,
  driver, launch delay); :meth:`~PopulationExperiment.run` builds the
  shared :class:`~repro.sim.scenario.World`, joins one
  :class:`~repro.sim.scenario.Scenario` per client, launches each at
  its delay with its profile's outages shifted by it, and collects a
  :class:`MultiClientResult`.  The uniform flash crowd
  (:class:`~repro.ext.multi_client.MultiClientExperiment`, x6) and the
  declarative city scenarios
  (:class:`~repro.scenarios.experiment.ScenarioExperiment`, x8/x9) are
  its two planners.

Every client shares one :class:`~repro.net.env.Environment`, so the
clients *within* a population cannot be split across processes without
a cross-environment clock sync (see DESIGN.md's conservative-lookahead
notes).  But a population-level study needs *seed replicates* — the
same policy over many independently seeded populations — and replicates
are embarrassingly parallel for exactly the reason trials are: each
population builds its whole world from its own derived seed.  So:

* :class:`PopulationSpec` — a picklable ``(label, trial, seed, policy,
  experiment)`` that reruns one whole population at its replicate seed
  per unit on the serial/process engines
  (:class:`~repro.sim.execution.WorkSpec` protocol);
* dense per-population scalars (:data:`POPULATION_COLUMNS`: mean/p95
  start-up, load imbalance, total server bytes, completed sessions)
  are one dense row per population, computed by
  :func:`population_dense_row`;
* the ragged per-client remainder — every client's
  :class:`~repro.sim.shm.SideRecord` plus the population's
  ``server_bytes`` — is a :class:`PopulationSideRecord` (on the pool,
  it rides the result pipe);
* each policy's rows are assembled into the spec kind's batch, a
  columnar :class:`PopulationBatch` (CSR per-client start-up delays
  next to the dense replicate columns), by the one
  :class:`~repro.sim.campaign.Campaign` every kind runs on; the
  policy's :class:`~repro.sim.campaign.TrialResult` carries it and
  the side records.

Determinism bar, same as every other campaign: every engine collects
the same columns, so serial and process runs produce bit-identical
batches for a fixed root seed (``tests/test_ext_population.py``,
``tests/test_determinism_sweeps.py``).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace
from typing import Any, ClassVar, NamedTuple

import numpy as np

from ..cdn.catalog import Catalog
from ..errors import ConfigError
from ..rng import RngFactory
from ..sim.driver import SessionOutcome
from ..sim.profiles import NetworkProfile
from ..sim.scenario import Scenario, ScenarioConfig, World
from ..sim.shm import ColumnLayout, dense_field_mismatches, encode_side
from .adaptive import AdaptiveOutcome

__all__ = [
    "POPULATION_COLUMNS",
    "ClientPlan",
    "MultiClientResult",
    "PopulationBatch",
    "PopulationExperiment",
    "PopulationSideRecord",
    "PopulationSpec",
    "population_dense_row",
]

#: The population column layout: one row of per-population aggregates
#: per replicate.  Float columns are NaN when no client ever started
#: playback; ``completed`` counts clients with a defined start-up.
POPULATION_COLUMNS: ColumnLayout = (
    ("mean_startup", np.float64),
    ("p95_startup", np.float64),
    ("load_imbalance", np.float64),
    ("total_server_bytes", np.int64),
    ("completed", np.int64),
    ("total_stall", np.float64),
    ("session_time", np.float64),
    ("total_failovers", np.int64),
    ("sessions", np.int64),
)


@dataclass
class MultiClientResult:
    """One population's outcomes under one selection policy."""

    policy: str
    outcomes: list[SessionOutcome] = field(default_factory=list)
    server_bytes: dict[str, int] = field(default_factory=dict)

    def startup_delays(self) -> list[float]:
        return [o.startup_delay for o in self.outcomes if o.startup_delay is not None]

    @property
    def load_imbalance(self) -> float:
        """Max/mean byte ratio across *all* video servers.

        1.0 = perfectly even; with S servers, a policy that starves all
        but one scores S.  Idle servers count — an unused replica is
        exactly the imbalance the selection policy should prevent.
        """
        loads = list(self.server_bytes.values())
        if not loads or sum(loads) == 0:
            return 0.0
        return max(loads) / (sum(loads) / len(loads))


# ---------------------------------------------------------------------------
# The population runner
# ---------------------------------------------------------------------------


class ClientPlan(NamedTuple):
    """One planned client: what it runs over, what it plays, and when."""

    #: Access profile: the client's links, latencies and outages.
    profile: NetworkProfile
    #: The catalog video it plays.
    video_id: str
    #: ``scenario -> driver``, called once the client has joined the world.
    driver: Callable[[Scenario], Any]
    #: Launch delay in world seconds.
    delay: float


def _launch(env, driver, delay: float):
    yield env.pooled_timeout(delay)
    driver.launch()


def _collect(driver) -> SessionOutcome:
    """A client's outcome in the population's common shape.

    The dense rows and side records speak
    :class:`~repro.sim.driver.SessionOutcome`; an adaptive driver's
    extras (itag history, switch counts) are per-session diagnostics
    the population aggregates do not consume.  Metrics ride through
    untouched, so start-up/stall/failover aggregation is exact, and the
    fold happens *inside* the run so serial and worker paths encode
    exactly the same objects.
    """
    outcome = driver.collect()
    if isinstance(outcome, AdaptiveOutcome):
        return SessionOutcome(
            metrics=outcome.metrics,
            finished_at=outcome.finished_at,
            stop_reason=outcome.stop_reason,
            peak_out_of_order=outcome.metrics.peak_out_of_order,
        )
    return outcome


class PopulationExperiment:
    """Many clients sharing one world, under one selection policy.

    A subclass is a frozen dataclass with ``seed``, ``client_count`` and
    ``overload_threshold`` fields that *plans* its population
    (:meth:`plan`) and may disturb the world once every client is
    launched (:meth:`disturb`); building, launching, running and
    collecting are this class's, one way for every population.
    """

    seed: int
    client_count: int
    overload_threshold: int | None

    def __post_init__(self) -> None:
        if self.client_count < 1:
            raise ConfigError("need at least one client")

    def plan(self) -> tuple[NetworkProfile, Catalog, list[ClientPlan]]:
        """The world's profile and catalog, and one plan per client."""
        raise NotImplementedError

    def disturb(self, world: World, scenarios: list[Scenario]) -> None:
        """Start world-level faults after every launch (none by default)."""

    def run(self, policy: str) -> MultiClientResult:
        profile, catalog, plans = self.plan()
        world = World(
            profile,
            catalog,
            policy,
            self.overload_threshold,
            RngFactory(self.seed).generator("cdn"),
        )
        scenarios: list[Scenario] = []
        drivers = []
        for index, plan in enumerate(plans):
            video = catalog.get(plan.video_id)
            config = ScenarioConfig(
                video_duration_s=video.duration_s,
                video_id=video.video_id,
                copyrighted=video.copyrighted,
                itags=video.itags,
                selection_policy=policy,
                overload_threshold=self.overload_threshold,
            )
            scenarios.append(Scenario.join(world, plan.profile, self.seed, index, config))
            drivers.append(plan.driver(scenarios[-1]))

        env = world.env
        for scenario, driver, plan in zip(scenarios, drivers, plans, strict=True):
            env.process(_launch(env, driver, plan.delay))
            scenario.schedule_outages(plan.delay)
        self.disturb(world, scenarios)

        env.run(until=env.all_of([driver.finished for driver in drivers]))
        return MultiClientResult(
            policy=policy,
            outcomes=[_collect(driver) for driver in drivers],
            server_bytes=world.deployment.total_bytes_served(),
        )

    # -- population campaigns -------------------------------------------------

    def replicate_seed(self, replicate: int) -> int:
        """The derived seed of one replicate population.

        Policy-independent on purpose: every policy of a comparison
        sees the *same* sequence of seeded populations, so policy
        differences are never confounded with seed differences (the
        population analogue of the paper's identically seeded
        configuration repetitions).
        """
        return RngFactory(self.seed).child(f"replicate-{replicate}").integer(
            "population"
        )

    def specs_for(self, policy: str, replicates: int = 1) -> list[PopulationSpec]:
        """Picklable specs that rerun this population, one whole
        population per spec, on any execution backend."""
        return [
            PopulationSpec(
                label=policy,
                trial=replicate,
                seed=self.replicate_seed(replicate),
                policy=policy,
                experiment=self,
            )
            for replicate in range(replicates)
        ]


# ---------------------------------------------------------------------------
# Dense rows, side records and the per-policy batch
# ---------------------------------------------------------------------------


def _session_seconds(outcome) -> float:
    """One client's session wall time for the rebuffer-ratio denominator.

    Playback end when playback finished; otherwise the collection
    timestamp (in shared worlds that is the population's end time — the
    honest upper bound for a session that never completed).
    """
    ended = outcome.metrics.playback_finished_at
    if ended is None:
        ended = outcome.finished_at
    return ended - outcome.metrics.session_started_at


def population_dense_row(result: MultiClientResult) -> dict[str, float]:
    """One population's dense scalars, by column name.

    The single source of the aggregate arithmetic:
    :meth:`PopulationSpec.dense_row` orders it into the population's
    dense row on whichever engine collects the population.
    """
    delays = np.asarray(result.startup_delays(), dtype=np.float64)
    if delays.size:
        mean = float(delays.mean())
        p95 = float(np.quantile(delays, 0.95))
    else:
        mean = p95 = float("nan")
    return {
        "mean_startup": mean,
        "p95_startup": p95,
        "load_imbalance": result.load_imbalance,
        "total_server_bytes": sum(result.server_bytes.values()),
        "completed": delays.size,
        "total_stall": float(
            sum(o.metrics.total_stall_time for o in result.outcomes)
        ),
        "session_time": float(sum(_session_seconds(o) for o in result.outcomes)),
        "total_failovers": sum(o.metrics.failovers for o in result.outcomes),
        "sessions": len(result.outcomes),
    }


class PopulationSideRecord(NamedTuple):
    """One population's ragged remainder, flattened to primitives.

    Everything the dense row does not carry: the per-server byte map
    and every client's outcome — each client as the same flat
    :class:`~repro.sim.shm.SideRecord` the per-trial path ships, plus
    the two scalars (``finished_at``, ``failovers``) that per-trial
    collection stores densely but have no per-client dense row here.
    """

    policy: str
    replicate: int
    server_bytes: dict
    client_finished_at: tuple
    client_failovers: tuple
    client_sides: tuple

    def client_startup_delays(self) -> list[float]:
        """Defined per-client start-up delays, client order.

        The same ``playback_started_at - session_started_at``
        subtraction :attr:`~repro.core.metrics.QoEMetrics.startup_delay`
        performs, so batches assembled from side records are
        bit-identical to ones built from result objects.
        """
        return [
            side.playback_started_at - side.session_started_at
            for side in self.client_sides
            if side.playback_started_at is not None
        ]


@dataclass(frozen=True, eq=False)
class PopulationBatch:
    """One policy's replicated populations, transposed into columns.

    ``eq=False`` for the same reason as ``OutcomeBatch``: identity
    comparison is the useful semantic for a derived cache.  Dense
    replicate aggregates are ``(r,)`` arrays; the ragged per-client
    start-up delays are flat with CSR offsets (replicate ``i`` owns
    ``client_startup[client_offsets[i]:client_offsets[i+1]]``).
    """

    #: (r,) mean client start-up per replicate; NaN if none started.
    mean_startup: np.ndarray
    #: (r,) 95th-percentile client start-up per replicate.
    p95_startup: np.ndarray
    #: (r,) max/mean server byte ratio per replicate.
    load_imbalance: np.ndarray
    #: (r,) total bytes served across all video servers.
    total_server_bytes: np.ndarray
    #: (r,) clients whose playback started.
    completed: np.ndarray
    #: (r,) total stalled seconds across the population's clients.
    total_stall: np.ndarray
    #: (r,) total session wall seconds (rebuffer-ratio denominator).
    session_time: np.ndarray
    #: (r,) total source failovers across the population's clients.
    total_failovers: np.ndarray
    #: (r,) population size (clients launched, started or not).
    sessions: np.ndarray
    #: flat defined per-client start-up delays, replicate-major.
    client_startup: np.ndarray
    #: (r+1,) CSR offsets into ``client_startup``.
    client_offsets: np.ndarray

    @classmethod
    def _from_csr_source(
        cls, dense: dict[str, np.ndarray], delays_per_replicate: Sequence[list[float]]
    ) -> "PopulationBatch":
        flat: list[float] = []
        offsets: list[int] = [0]
        for delays in delays_per_replicate:
            flat.extend(delays)
            offsets.append(len(flat))
        return cls(
            **{
                name: np.asarray(dense[name], dtype=dtype)
                for name, dtype in POPULATION_COLUMNS
            },
            client_startup=np.asarray(flat, dtype=np.float64),
            client_offsets=np.asarray(offsets, dtype=np.int64),
        )

    @classmethod
    def from_dense_and_sides(
        cls, dense: dict[str, np.ndarray], sides: Sequence[PopulationSideRecord]
    ) -> "PopulationBatch":
        """The one assembly: adopt the dense columns as-is; only the
        CSR delays are built from the side records."""
        return cls._from_csr_source(
            dense, [side.client_startup_delays() for side in sides]
        )

    def __len__(self) -> int:
        return len(self.mean_startup)

    def column_mismatches(self, other: "PopulationBatch") -> list[str]:
        """Names of columns not bit-identical to ``other``'s (NaN==NaN)."""
        return dense_field_mismatches(self, other)

    def startup_delays(self) -> np.ndarray:
        """All defined client start-up delays, replicate-major order."""
        return self.client_startup


@dataclass(frozen=True)
class PopulationSpec:
    """One (policy, seed-replicate) population, self-contained.

    The :class:`~repro.sim.execution.WorkSpec` kind for population
    campaigns: ``run`` reruns ``experiment`` — a whole population of
    clients sharing one environment and CDN — at this replicate's
    ``seed``, under one selection policy.
    """

    label: str
    trial: int
    seed: int
    policy: str
    experiment: PopulationExperiment

    #: Column layout and batch class for collection (class-level).
    dense_columns: ClassVar[ColumnLayout] = POPULATION_COLUMNS
    batch: ClassVar[type] = PopulationBatch

    def run(self) -> MultiClientResult:
        """Execute this population start to finish (the pool work unit)."""
        return replace(self.experiment, seed=self.seed).run(self.policy)

    def dense_row(self, result: MultiClientResult) -> tuple:
        values = population_dense_row(result)
        return tuple(values[name] for name, _dtype in POPULATION_COLUMNS)

    def encode_side(self, result: MultiClientResult) -> PopulationSideRecord:
        return PopulationSideRecord(
            policy=result.policy,
            replicate=self.trial,
            server_bytes=result.server_bytes,
            client_finished_at=tuple(o.finished_at for o in result.outcomes),
            client_failovers=tuple(o.metrics.failovers for o in result.outcomes),
            client_sides=tuple(encode_side(o) for o in result.outcomes),
        )
