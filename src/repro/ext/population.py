"""Population campaigns: whole multi-client populations as work units.

The paper's §2 source-diversity argument is operationally about
*populations* — many MSPlayer clients arriving together and stressing
the CDN's server selection.  One such population is a single
:class:`~repro.ext.multi_client.MultiClientExperiment` run: every
client shares one :class:`~repro.net.env.Environment`, so the clients
*within* a population cannot be split across processes without a
cross-environment clock sync (see DESIGN.md's conservative-lookahead
notes).  But a population-level study needs *seed replicates* — the
same policy over many independently seeded populations — and replicates
are embarrassingly parallel for exactly the reason trials are: each
population builds its whole world from its own derived seed.

This module makes a population a campaign work unit:

* :class:`PopulationSpec` — a picklable ``(policy, replicate, seed,
  client_count, profile)`` description that runs one whole population
  per unit on the existing serial/process engines
  (:class:`~repro.sim.execution.WorkSpec` protocol);
* dense per-population scalars (:data:`POPULATION_COLUMNS`: mean/p95
  start-up, load imbalance, total server bytes, completed sessions)
  are written into the collection arena, one row per population,
  computed by :func:`population_dense_row`;
* the ragged per-client remainder — every client's
  :class:`~repro.sim.shm.SideRecord` plus the population's
  ``server_bytes`` — is a :class:`PopulationSideRecord` (on the pool,
  it rides the result pipe), whose :meth:`~PopulationSideRecord.
  rebuild` inverts it into the exact
  :class:`~repro.ext.multi_client.MultiClientResult`;
* :class:`PopulationCampaign` demultiplexes per policy into columnar
  :class:`PopulationBatch`es (CSR per-client start-up delays next to
  the dense replicate columns), wrapped in lazy
  :class:`PopulationResult`s.

Determinism bar, same as every other campaign: every engine collects
the same columns, so serial and process runs produce bit-identical
batches for a fixed root seed (``tests/test_ext_population.py``,
``tests/test_determinism_sweeps.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from collections.abc import Callable, Sequence
from typing import ClassVar, NamedTuple

import numpy as np

from ..core.config import PlayerConfig
from ..sim.campaign import Campaign, dense_field_mismatches
from ..sim.profiles import NetworkProfile
from ..sim.shm import ColumnLayout, OutcomeArena, encode_side, rebuild_outcome
from .multi_client import MultiClientExperiment, MultiClientResult

__all__ = [
    "POPULATION_COLUMNS",
    "PopulationBatch",
    "PopulationCampaign",
    "PopulationResult",
    "PopulationSideRecord",
    "PopulationSpec",
    "population_dense_row",
]

#: The population arena layout: one row of per-population aggregates
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
    """One population's dense scalars, as stored in the arena row.

    The single source of the aggregate arithmetic:
    :meth:`PopulationSpec.write_dense` runs it into the arena on
    whichever engine collects the population.
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
    collection stores densely but have no per-client arena row here.
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

    def rebuild(self) -> MultiClientResult:
        """Invert :meth:`PopulationSpec.encode_side` exactly."""
        return MultiClientResult(
            policy=self.policy,
            outcomes=[
                rebuild_outcome(side, finished_at, failovers)
                for side, finished_at, failovers in zip(
                    self.client_sides,
                    self.client_finished_at,
                    self.client_failovers,
                    strict=True,
                )
            ],
            server_bytes=dict(self.server_bytes),
        )


def rebuild_populations(
    dense: dict[str, np.ndarray], sides: Sequence[PopulationSideRecord]
) -> list[MultiClientResult]:
    """Materialize result objects from a columnar population collection.

    The dense columns are aggregates *derived* from the side records,
    so the rebuild needs only the sides; the signature matches the
    ``TrialCollection`` rebuild contract.
    """
    del dense
    return [side.rebuild() for side in sides]


@dataclass(frozen=True)
class PopulationSpec:
    """One (policy, seed-replicate) population, self-contained.

    The :class:`~repro.sim.execution.WorkSpec` kind for population
    campaigns: ``run`` executes a whole
    :class:`~repro.ext.multi_client.MultiClientExperiment` population —
    ``client_count`` clients sharing one environment and CDN — under
    one selection policy, seeded for this replicate.
    """

    label: str
    trial: int
    seed: int
    policy: str
    client_count: int
    profile_factory: Callable[[], NetworkProfile]
    video_duration_s: float = 120.0
    overload_threshold: int | None = 2
    player_config: PlayerConfig = field(default_factory=PlayerConfig)
    stop: str = "prebuffer"
    #: Optional arrival-schedule hook, ``(rng, count) -> delays`` —
    #: module-level callables only (specs must stay picklable).  ``None``
    #: keeps the classic uniform flash-crowd stagger bit-for-bit.
    launch_schedule: Callable[[np.random.Generator, int], Sequence[float]] | None = None
    #: Optional world hook ``(env, deployment) -> None`` run before any
    #: client launches — the churn-injection seam (same pickling rule).
    world_hook: Callable | None = None

    #: Arena layout for collection (class-level).
    dense_columns: ClassVar[ColumnLayout] = POPULATION_COLUMNS

    def run(self) -> MultiClientResult:
        """Execute this population start to finish (the pool work unit)."""
        experiment = MultiClientExperiment(
            self.profile_factory,
            client_count=self.client_count,
            seed=self.seed,
            video_duration_s=self.video_duration_s,
            overload_threshold=self.overload_threshold,
            player_config=self.player_config,
            stop=self.stop,
            launch_schedule=self.launch_schedule,
            world_hook=self.world_hook,
        )
        return experiment.run(self.policy)

    def write_dense(
        self, arena: OutcomeArena, row: int, result: MultiClientResult
    ) -> None:
        arena.write_row(row, population_dense_row(result))

    def encode_side(self, result: MultiClientResult) -> PopulationSideRecord:
        return PopulationSideRecord(
            policy=result.policy,
            replicate=self.trial,
            server_bytes=result.server_bytes,
            client_finished_at=tuple(o.finished_at for o in result.outcomes),
            client_failovers=tuple(o.metrics.failovers for o in result.outcomes),
            client_sides=tuple(encode_side(o) for o in result.outcomes),
        )

    rebuild = staticmethod(rebuild_populations)


# ---------------------------------------------------------------------------
# Columnar per-policy storage
# ---------------------------------------------------------------------------


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
        """The one assembly: adopt the arena columns as-is; only the
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


# ---------------------------------------------------------------------------
# Per-policy results and the campaign
# ---------------------------------------------------------------------------


class PopulationResult:
    """One policy's results across seed replicates.

    The population analogue of
    :class:`~repro.sim.campaign.TrialResult`: the columnar batch plus a
    thunk that rebuilds the
    :class:`~repro.ext.multi_client.MultiClientResult`s only if
    something walks them.
    """

    def __init__(
        self,
        label: str,
        batch: PopulationBatch,
        result_thunk: Callable[[], list[MultiClientResult]],
    ) -> None:
        self.label = label
        self.batch = batch
        self._thunk = result_thunk
        self._results: list[MultiClientResult] | None = None

    @property
    def policy(self) -> str:
        return self.label

    @property
    def results(self) -> list[MultiClientResult]:
        """The per-replicate result objects, materialized on first use."""
        if self._results is None:
            self._results = self._thunk()
        return self._results

    def __len__(self) -> int:
        return len(self.batch)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PopulationResult(label={self.label!r}, replicates={len(self)})"

    def startup_delays(self) -> list[float]:
        """All defined client start-up delays across replicates."""
        return self.batch.startup_delays().tolist()


class PopulationCampaign(Campaign):
    """A figure's worth of population batches, one pool submission.

    Identical scheduling to :class:`~repro.sim.campaign.Campaign`
    (round-robin interleave, single engine submission, per-label
    demux); only the demux hook differs — each policy's slice becomes a
    :class:`PopulationBatch` inside a :class:`PopulationResult`.
    """

    def _result(
        self, label: str, dense: dict[str, np.ndarray], sides: list
    ) -> PopulationResult:
        return PopulationResult(
            label,
            PopulationBatch.from_dense_and_sides(dense, sides),
            partial(rebuild_populations, dense, sides),
        )
