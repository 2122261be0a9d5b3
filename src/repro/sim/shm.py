"""Columnar outcome collection for campaign work units.

No engine hands whole :class:`~repro.sim.driver.SessionOutcome` graphs
(outcome, its :class:`~repro.core.metrics.QoEMetrics`, every
``StallEvent`` / ``RebufferCycle``) to the campaign layer only to have
them transposed into the columnar
:class:`~repro.sim.campaign.OutcomeBatch`.  Every work unit is encoded
along the batch's own layout, as a ``(dense_row, side)`` pair:

* the **dense row** is a tuple of plain scalars, one per column of the
  spec kind's layout — for a trial, start-up delay, finish time, total
  stall and failover count (:data:`DENSE_COLUMNS`, :func:`dense_row`);
* the **side record** holds the ragged and string/dict fields —
  re-buffering cycles (CSR source data), stalls, ``stop_reason``, the
  per-path byte/bootstrap dicts, ``server_bytes`` — flattened to
  primitives (:class:`SideRecord`), far cheaper to pickle than the
  nested dataclass graph.

On the process pool the pair is what a worker sends back through the
result pipe; in process it is built in place.  Either way the parent
fills one :class:`OutcomeArena` — numpy columns in its own memory —
from the rows, at each unit's row index, so the float64/int64 values a
worker computed are the values the analysis layer reads.  The arena is
layout-agnostic: ``create`` takes an ordered :data:`ColumnLayout`
(``DENSE_COLUMNS`` by default), so population campaigns
(:mod:`repro.ext.population`) store per-population aggregates per row
and ship per-client remainders as their own side records.

Every engine hands the campaign the same :class:`TrialCollection` —
dense columns and side records — and the columns plus side records are
the whole collected result: each result kind is assembled from them,
and a reader that needs a per-trial field the batch does not carry
(fig1's per-path delays, x2's ``server_bytes``) reads it off the side
record.  The test walls in ``tests/test_sim_shm.py`` /
``tests/test_sim_campaign_properties.py`` hold the columns to the
object-built batches of ``tests/object_batches.py`` and the side
records to the workers' own encoding, on every engine.  (The module
keeps its historical name: the end-to-end benchmark imports it.)
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import NamedTuple

import numpy as np

from .driver import SessionOutcome

__all__ = [
    "ColumnLayout",
    "DENSE_COLUMNS",
    "OutcomeArena",
    "SideRecord",
    "TrialCollection",
    "collect_trials",
    "collect_units",
    "dense_row",
    "encode_side",
    "resolve_ipc",
]

#: A dense column layout: ordered (column name, dtype) pairs.  The layout
#: is a *parameter* of :class:`OutcomeArena` — per-trial campaigns use
#: :data:`DENSE_COLUMNS`, population campaigns bring their own
#: per-population layout (``repro.ext.population.POPULATION_COLUMNS``).
ColumnLayout = tuple[tuple[str, type], ...]

#: The per-trial layout: exactly the scalar-per-trial columns of
#: ``OutcomeBatch``; everything else is side-channel data.
DENSE_COLUMNS: ColumnLayout = (
    ("startup", np.float64),
    ("finished_at", np.float64),
    ("total_stall", np.float64),
    ("failovers", np.int64),
)


# perfbench/round.py reads this; removing it breaks every benchmark round.
def resolve_ipc() -> str:
    """The process engine's one collection mode."""
    return "pipe"


def dense_row(outcome: SessionOutcome) -> tuple:
    """One trial's dense scalars in :data:`DENSE_COLUMNS` order (NaN
    start-up for a session whose playback never started)."""
    delay = outcome.startup_delay
    return (
        np.nan if delay is None else delay,
        outcome.finished_at,
        outcome.metrics.total_stall_time,
        outcome.metrics.failovers,
    )


# ---------------------------------------------------------------------------
# The dense-column arena
# ---------------------------------------------------------------------------


class OutcomeArena:
    """Dense per-work-unit scalar columns, in this process's memory.

    One zeroed numpy column, ``rows`` long, per entry of ``columns``
    (:data:`DENSE_COLUMNS` by default); each work unit's dense row is
    stored at its row index.
    """

    def __init__(self, rows: int, columns: ColumnLayout = DENSE_COLUMNS) -> None:
        self.rows = rows
        self.columns = columns
        self._arrays = {name: np.zeros(rows, dtype=dtype) for name, dtype in columns}

    @classmethod
    def create(cls, rows: int, columns: ColumnLayout = DENSE_COLUMNS) -> "OutcomeArena":
        """A fresh arena for ``rows`` work units."""
        return cls(rows, columns)

    def write(self, row: int, outcome: SessionOutcome) -> None:
        """Store one trial's dense scalars at its row index (the
        :data:`DENSE_COLUMNS` convenience)."""
        self.write_row(row, dense_row(outcome))

    def write_row(self, row: int, values: Sequence) -> None:
        """Store one work unit's dense row, one value per column."""
        for (name, _dtype), value in zip(self.columns, values, strict=True):
            self._arrays[name][row] = value

    def read_columns(self) -> dict[str, np.ndarray]:
        """Copies of the columns (the arena can then be dropped)."""
        return {name: column.copy() for name, column in self._arrays.items()}

    def destroy(self) -> None:
        """Release the columns; idempotent."""
        self._arrays = {}


# ---------------------------------------------------------------------------
# The side channel: everything that is not a dense scalar
# ---------------------------------------------------------------------------


class SideRecord(NamedTuple):
    """One trial's non-dense remainder, flattened to primitives.

    Carries every ``SessionOutcome`` / ``QoEMetrics`` field that is not
    in the arena, with the nested ``StallEvent`` / ``RebufferCycle``
    objects flattened to tuples — a pickle of this is a flat tuple of
    strings, floats, and small dicts instead of a dataclass graph.
    """

    stop_reason: str
    peak_out_of_order: int
    path_json_delay: dict
    path_first_video_delay: dict
    server_bytes: dict
    requests_by_path: dict
    # -- QoEMetrics remainder ------------------------------------------------
    session_started_at: float
    playback_started_at: float | None
    prebuffer_completed_at: float | None
    playback_finished_at: float | None
    download_completed_at: float | None
    prebuffer_bytes_by_path: dict
    rebuffer_bytes_by_path: dict
    metrics_requests_by_path: dict
    active_time_by_path: dict
    path_bootstrap: dict
    #: ((started_at, ended_at-or-None), ...)
    stalls: tuple
    #: ((started_at, ended_at-or-None, level_at_start_s), ...)
    rebuffer_cycles: tuple
    metrics_peak_out_of_order: int

    def completed_cycle_durations(self) -> list[float]:
        """Fig. 5's refill times — the same ``ended - started``
        subtraction ``RebufferCycle.duration`` performs, so batches
        assembled from side records are bit-identical to ones built
        from outcome objects."""
        return [
            ended - started
            for started, ended, _level in self.rebuffer_cycles
            if ended is not None
        ]


def encode_side(outcome: SessionOutcome) -> SideRecord:
    """Flatten one outcome's non-dense remainder (worker side).

    Dict fields are carried by reference — the worker discards the
    outcome right after, and pickling copies them anyway.
    """
    metrics = outcome.metrics
    return SideRecord(
        stop_reason=outcome.stop_reason,
        peak_out_of_order=outcome.peak_out_of_order,
        path_json_delay=outcome.path_json_delay,
        path_first_video_delay=outcome.path_first_video_delay,
        server_bytes=outcome.server_bytes,
        requests_by_path=outcome.requests_by_path,
        session_started_at=metrics.session_started_at,
        playback_started_at=metrics.playback_started_at,
        prebuffer_completed_at=metrics.prebuffer_completed_at,
        playback_finished_at=metrics.playback_finished_at,
        download_completed_at=metrics.download_completed_at,
        prebuffer_bytes_by_path=metrics.prebuffer_bytes_by_path,
        rebuffer_bytes_by_path=metrics.rebuffer_bytes_by_path,
        metrics_requests_by_path=metrics.requests_by_path,
        active_time_by_path=metrics.active_time_by_path,
        path_bootstrap=metrics.path_bootstrap,
        stalls=tuple((s.started_at, s.ended_at) for s in metrics.stalls),
        rebuffer_cycles=tuple(
            (c.started_at, c.ended_at, c.level_at_start_s)
            for c in metrics.rebuffer_cycles
        ),
        metrics_peak_out_of_order=metrics.peak_out_of_order,
    )


# ---------------------------------------------------------------------------
# What a collection hands back to the campaign layer
# ---------------------------------------------------------------------------


class TrialCollection(NamedTuple):
    """An engine's collected work units, columnar — what every engine
    hands the campaign layer, so each result kind is assembled one way.

    ``dense`` holds the arena's column copies and ``sides`` the side
    records, both in spec order.
    """

    dense: dict[str, np.ndarray]
    sides: list


def collect_units(
    units: Iterable[tuple[Sequence, object]], columns: ColumnLayout = DENSE_COLUMNS
) -> TrialCollection:
    """Assemble work units' ``(dense_row, side)`` pairs, in spec order,
    into a collection — the one assembly every engine shares.

    Each dense row lands at its row index of one :class:`OutcomeArena`
    with ``columns``' layout; the side records are kept as they are.
    """
    units = list(units)
    arena = OutcomeArena.create(len(units), columns)
    for row, (dense, _side) in enumerate(units):
        arena.write_row(row, dense)
    return TrialCollection(arena.read_columns(), [side for _dense, side in units])


def collect_trials(engine, specs) -> TrialCollection:
    """Run specs through an engine and collect them columnar.

    An ``ExecutionEngine`` ``collect``s itself.  An engine that only
    has ``map`` (spec batch → result objects, in spec order — the
    end-to-end benchmark's tracing engine is one) has its results
    encoded through the same spec methods a pool worker calls.
    """
    collect = getattr(engine, "collect", None)
    if collect is not None:
        return collect(specs)
    # Imported here: the engines module builds on this one.
    from .execution import collect_in_process

    specs = list(specs)
    return collect_in_process(specs, engine.map(specs))
