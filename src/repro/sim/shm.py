"""Columnar outcome collection for campaign work units.

No engine hands whole :class:`~repro.sim.driver.SessionOutcome` graphs
(outcome, its :class:`~repro.core.metrics.QoEMetrics`, every
``StallEvent`` / ``RebufferCycle``) to the campaign layer only to have
them transposed into the columnar
:class:`~repro.sim.campaign.OutcomeBatch`.  Every collection is split
along the batch's own layout:

* the **dense scalar columns** (start-up delay, finish time, total
  stall, failover count — :data:`DENSE_COLUMNS`) are written *in
  place*, each at its unit's row index, into one arena sized from the
  spec count (:class:`OutcomeArena`).  On the process pool the arena is
  a ``multiprocessing.shared_memory`` segment the workers write and
  the parent reads with **zero deserialization** — the float64/int64
  bits a worker stored are the bits the analysis layer reads.  In
  process the arena is private memory (:meth:`OutcomeArena.local`):
  the same layout and writes, no ``/dev/shm``;
* the **ragged and string/dict fields** — re-buffering cycles (CSR
  source data), stalls, ``stop_reason``, the per-path byte/bootstrap
  dicts, ``server_bytes`` — become a flat :class:`SideRecord` of
  primitives; on the pool it is what comes back through the result
  pipe, far cheaper to pickle than the nested dataclass graph.

A full ``SessionOutcome`` can always be rebuilt exactly from one dense
row plus its side record (:func:`rebuild_outcome`); consumers that walk
outcome objects (EXP-X2's ``server_bytes`` accounting) get them lazily,
while the analytics path never materializes them at all.

The arena itself is layout-agnostic: ``create``/``attach`` take an
ordered :data:`ColumnLayout` (``DENSE_COLUMNS`` by default), so other
campaign kinds reuse the same transport with their own dense scalars —
population campaigns (:mod:`repro.ext.population`) store per-population
aggregates per row and ship per-client remainders as their own side
records.

Cleanup protocol for shared arenas: the parent owns the segment —
``create`` → workers ``attach`` (and immediately deregister the segment
from their resource tracker; the parent's registration is the tracked
one) → parent copies the columns out and calls ``destroy`` (close +
unlink) in a ``finally``, so a worker crash / ``BrokenProcessPool`` —
even one that breaks the fresh-pool retry too — cannot leak
``/dev/shm`` segments or provoke ``resource_tracker`` leak warnings.

Every engine hands the campaign the same :class:`TrialCollection` —
dense columns, side records and the spec kind's rebuild inverse — so
each result kind is assembled one way, from columns.  The test walls in
``tests/test_sim_shm.py`` / ``tests/test_sim_campaign_properties.py``
hold the columns to the object-built batches of
``tests/object_batches.py``, on every engine.
"""

from __future__ import annotations

import contextlib
import os
from multiprocessing import resource_tracker, shared_memory
from collections.abc import Callable, Sequence
from typing import NamedTuple

import numpy as np

from ..core.metrics import QoEMetrics, RebufferCycle, StallEvent
from .driver import SessionOutcome

__all__ = [
    "ARENA_PREFIX",
    "ColumnLayout",
    "DENSE_COLUMNS",
    "OutcomeArena",
    "SideRecord",
    "TrialCollection",
    "collect_trials",
    "encode_side",
    "rebuild_outcome",
    "rebuild_outcomes",
    "resolve_ipc",
]

#: Shared-memory segment name prefix — recognizable so leak checks (and
#: an operator staring at /dev/shm) can attribute segments to us.
ARENA_PREFIX = "repro-arena-"

#: A dense arena layout: ordered (column name, dtype) pairs.  The layout
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


def _row_bytes(columns: ColumnLayout) -> int:
    return sum(np.dtype(dtype).itemsize for _name, dtype in columns)


# perfbench/round.py reads this; removing it breaks every benchmark round.
def resolve_ipc() -> str:
    """The process engine's one collection mode."""
    return "shm"


# ---------------------------------------------------------------------------
# The dense-column arena
# ---------------------------------------------------------------------------


class _PrivateMemory:
    """The slice of the ``SharedMemory`` surface an arena uses, over a
    plain ``bytearray``: in-process runs never touch ``/dev/shm``."""

    def __init__(self, size: int) -> None:
        self.buf = bytearray(size)

    def close(self) -> None:
        pass


class OutcomeArena:
    """Dense per-work-unit scalar columns in one memory block.

    Column-major layout (``columns`` order, :data:`DENSE_COLUMNS` by
    default): column ``c`` of a ``rows``-unit arena occupies bytes
    ``[c * rows * 8, (c+1) * rows * 8)``.  For the pool, the parent
    creates it in shared memory sized from the campaign's spec count;
    each worker attaches once per campaign and writes its units' rows
    in place.  Rows are disjoint per unit, so concurrent writers never
    touch the same bytes.  In process, :meth:`local` backs the same
    layout with private memory.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory | _PrivateMemory,
        rows: int,
        owner: bool,
        columns: ColumnLayout = DENSE_COLUMNS,
    ) -> None:
        self._shm = shm
        self.rows = rows
        self.columns = columns
        self._owner = owner
        self._views: dict[str, np.ndarray] = {}
        offset = 0
        for name, dtype in columns:
            self._views[name] = np.ndarray(
                (rows,), dtype=dtype, buffer=shm.buf, offset=offset
            )
            offset += np.dtype(dtype).itemsize * rows

    @property
    def name(self) -> str:
        """The segment name workers attach by."""
        return self._shm.name

    @classmethod
    def create(cls, rows: int, columns: ColumnLayout = DENSE_COLUMNS) -> "OutcomeArena":
        """Parent side: allocate a fresh arena for ``rows`` work units."""
        size = max(1, rows * _row_bytes(columns))  # zero-byte segments are invalid
        while True:
            # OS entropy is deliberate here: the segment *name* must be
            # unique across unrelated processes sharing /dev/shm and
            # never feeds simulation state — results are a function of
            # the arena's contents, not its label.
            name = ARENA_PREFIX + os.urandom(8).hex()  # replint: disable=DET001
            try:
                shm = shared_memory.SharedMemory(name=name, create=True, size=size)
            except FileExistsError:  # pragma: no cover - 64-bit collision
                continue
            return cls(shm, rows, owner=True, columns=columns)

    @classmethod
    def local(cls, rows: int, columns: ColumnLayout = DENSE_COLUMNS) -> "OutcomeArena":
        """An arena in this process's own memory, for in-process
        collection: the same layout and writes, no segment to name,
        attach or unlink."""
        memory = _PrivateMemory(rows * _row_bytes(columns))
        return cls(memory, rows, owner=False, columns=columns)

    @classmethod
    def attach(
        cls, name: str, rows: int, columns: ColumnLayout = DENSE_COLUMNS
    ) -> "OutcomeArena":
        """Worker side: map an existing arena by name, untracked.

        CPython (< 3.13) registers a segment with the resource tracker
        on every ``SharedMemory()`` call, attach included.  The parent
        owns this segment's lifecycle, so worker-side registration is
        wrong in both start-method regimes: under ``fork`` the workers
        share the parent's tracker and the registry entry must outlive
        them untouched for the parent's unlink to deregister cleanly;
        under ``spawn``/``forkserver`` a worker's own tracker would
        "clean up" (unlink!) the live arena and warn about it when that
        worker exits.  3.13+ exposes ``track=False`` for exactly this;
        on older interpreters the registration call is shimmed out for
        the duration of the attach (workers are single-threaded).
        """
        try:
            shm = shared_memory.SharedMemory(name=name, track=False)
        except TypeError:  # Python < 3.13: no track parameter
            original = resource_tracker.register
            resource_tracker.register = lambda *args, **kwargs: None
            try:
                shm = shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = original
        return cls(shm, rows, owner=False, columns=columns)

    def write(self, row: int, outcome: SessionOutcome) -> None:
        """Store one trial's dense scalars at its row index.

        The :data:`DENSE_COLUMNS` convenience; arenas with other
        layouts store through :meth:`write_row`.
        """
        metrics = outcome.metrics
        delay = outcome.startup_delay
        self._views["startup"][row] = np.nan if delay is None else delay
        self._views["finished_at"][row] = outcome.finished_at
        self._views["total_stall"][row] = metrics.total_stall_time
        self._views["failovers"][row] = metrics.failovers

    def write_row(self, row: int, values: dict[str, float]) -> None:
        """Store one work unit's dense scalars, one value per column."""
        for name, _dtype in self.columns:
            self._views[name][row] = values[name]

    def read_columns(self) -> dict[str, np.ndarray]:
        """Copy the columns out of the segment (the arena can then die)."""
        return {name: np.array(view) for name, view in self._views.items()}

    def close(self) -> None:
        """Unmap this process's view (drops the buffer exports first —
        ``mmap`` refuses to close under live ``ndarray`` views)."""
        self._views = {}
        self._shm.close()

    def destroy(self) -> None:
        """Close and, if this side created the segment, unlink it.

        Idempotent and safe under exceptions — this is the ``finally``
        arm of the collection path, so it must succeed whether the map
        completed, the pool broke once (retry rewrote the rows), or the
        retry broke too.
        """
        with contextlib.suppress(Exception):  # pragma: no cover - already closed
            self.close()
        if self._owner:
            with contextlib.suppress(FileNotFoundError):  # pragma: no cover
                self._shm.unlink()


# ---------------------------------------------------------------------------
# The side channel: everything that is not a dense scalar
# ---------------------------------------------------------------------------


class SideRecord(NamedTuple):
    """One trial's non-dense remainder, flattened to primitives.

    Carries every ``SessionOutcome`` / ``QoEMetrics`` field that is not
    in the arena, with the nested ``StallEvent`` / ``RebufferCycle``
    objects flattened to tuples — a pickle of this is a flat tuple of
    strings, floats, and small dicts instead of a dataclass graph.
    ``rebuild_outcome`` inverts it exactly.
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


def rebuild_outcome(
    side: SideRecord, finished_at: float, failovers: int
) -> SessionOutcome:
    """Invert :func:`encode_side`: one dense row + side record →
    a ``SessionOutcome`` equal (``==``) to the worker's original."""
    metrics = QoEMetrics(
        session_started_at=side.session_started_at,
        playback_started_at=side.playback_started_at,
        prebuffer_completed_at=side.prebuffer_completed_at,
        playback_finished_at=side.playback_finished_at,
        download_completed_at=side.download_completed_at,
        prebuffer_bytes_by_path=dict(side.prebuffer_bytes_by_path),
        rebuffer_bytes_by_path=dict(side.rebuffer_bytes_by_path),
        requests_by_path=dict(side.metrics_requests_by_path),
        active_time_by_path=dict(side.active_time_by_path),
        path_bootstrap=dict(side.path_bootstrap),
        stalls=[StallEvent(started, ended) for started, ended in side.stalls],
        rebuffer_cycles=[
            RebufferCycle(started, ended, level)
            for started, ended, level in side.rebuffer_cycles
        ],
        failovers=int(failovers),
        peak_out_of_order=side.metrics_peak_out_of_order,
    )
    return SessionOutcome(
        metrics=metrics,
        finished_at=float(finished_at),
        stop_reason=side.stop_reason,
        peak_out_of_order=side.peak_out_of_order,
        path_json_delay=dict(side.path_json_delay),
        path_first_video_delay=dict(side.path_first_video_delay),
        server_bytes=dict(side.server_bytes),
        requests_by_path=dict(side.requests_by_path),
    )


def rebuild_outcomes(
    dense: dict[str, np.ndarray], sides: Sequence[SideRecord]
) -> list[SessionOutcome]:
    """Materialize full outcome objects for object-graph consumers."""
    finished = dense["finished_at"]
    failovers = dense["failovers"]
    return [
        rebuild_outcome(side, finished[i], failovers[i])
        for i, side in enumerate(sides)
    ]


# ---------------------------------------------------------------------------
# What a collection hands back to the campaign layer
# ---------------------------------------------------------------------------


class TrialCollection:
    """An engine's collected work units, columnar — what every engine
    hands the campaign layer, so each result kind is assembled one way.

    ``dense`` holds the arena's column copies and ``sides`` the side
    records, both in spec order; the campaign assembles its batches
    straight from them.  ``rebuild`` is the spec kind's
    ``(dense, sides) -> results`` inverse: result objects materialize
    only if something walks :attr:`outcomes`.
    """

    def __init__(
        self,
        dense: dict[str, np.ndarray],
        sides: Sequence,
        rebuild: Callable[[dict, Sequence], list],
    ) -> None:
        self.dense = dense
        self.sides = list(sides)
        self._rebuild = rebuild
        self._outcomes: list | None = None

    def __len__(self) -> int:
        return len(self.sides)

    @property
    def outcomes(self) -> list:
        if self._outcomes is None:
            self._outcomes = self._rebuild(self.dense, self.sides)
        return self._outcomes


def collect_trials(engine, specs) -> TrialCollection:
    """Run specs through an engine and collect them columnar.

    The built-in engines ``collect`` themselves.  An engine that only
    has ``map`` (a third-party ``ExecutionEngine``) has its results
    encoded through the same spec methods the built-ins call.
    """
    collect = getattr(engine, "collect", None)
    if collect is not None:
        return collect(specs)
    # Imported here: the engines module builds on this one.
    from .execution import collect_in_process

    specs = list(specs)
    return collect_in_process(specs, engine.map(specs))
