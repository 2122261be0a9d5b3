"""Campaign-level trial scheduling and columnar outcome aggregation.

The paper's seed derivation (``root_seed, label, trial``) makes every
trial of every configuration independent, so a figure sweep has no
reason to wait for one configuration's trials before starting the
next: it can feed the pool *all* of its specs at once and let the
scheduler keep every worker busy across configuration boundaries.
:class:`Campaign` does exactly that:

* configurations register their spec batches with :meth:`Campaign.add`
  (order of registration is the configuration order of the figure);
* :meth:`Campaign.run` interleaves the batches round-robin into one
  engine submission — trial *i* of every configuration before
  trial *i+1* of any, so heterogeneous trial durations spread evenly
  over the pool's chunks — and demultiplexes the collected columns
  back into one :class:`TrialResult` per label, in per-label trial
  order.

:func:`run_together` is the one place that happens, for one campaign
or for every cell of a study grid, and the one place below
:meth:`Study.run <repro.study.study.Study.run>` where a backend left
unspecified is resolved (``REPRO_JOBS`` semantics, and only when there
is work to submit).

Determinism: every trial builds its whole world from its own derived
seed, so execution order is irrelevant to the outcomes and a campaign's
per-label results are byte-identical to running each configuration as
a campaign of its own (asserted in ``tests/test_sim_campaign.py`` for
fig3 and table1 shapes, on every backend).

Aggregation: outcomes land in a columnar :class:`OutcomeBatch` — numpy
arrays for start-up delays, completed cycle durations (CSR layout), and
per-path/per-phase traffic bytes — so the analysis layer computes
statistics with O(1) vectorized passes per campaign instead of Python
loops per trial.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from collections.abc import Collection, Sequence

import numpy as np

from ..errors import ConfigError
from .execution import ExecutionEngine, TrialSpec, resolve_engine
from .shm import SideRecord, collect_trials

__all__ = [
    "Campaign",
    "OutcomeBatch",
    "TrialResult",
    "dense_field_mismatches",
    "run_together",
]


def dense_field_mismatches(a, b) -> list[str]:
    """Names of ndarray dataclass fields not bit-identical between two
    batches of the same kind.

    The determinism predicate every collection-path test asserts on: a
    column counts as mismatched if its dtype differs or any element's
    bits do (NaN == NaN — never-started sessions must not read as
    nondeterminism).  Enumerated from the dataclass fields so a future
    column cannot silently escape; shared by ``OutcomeBatch`` and
    ``repro.ext.population.PopulationBatch``.
    """
    mismatched = []
    for batch_field in fields(a):
        mine, theirs = getattr(a, batch_field.name), getattr(b, batch_field.name)
        if mine.dtype != theirs.dtype or not np.array_equal(
            mine, theirs, equal_nan=mine.dtype.kind == "f"
        ):
            mismatched.append(batch_field.name)
    return mismatched


# ---------------------------------------------------------------------------
# Columnar outcome storage
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class OutcomeBatch:
    """One configuration's outcomes, transposed into columns.

    ``eq=False``: the dataclass-generated ``__eq__`` would compare
    ndarray fields elementwise and raise on ``bool()``; identity
    comparison is the useful semantic for a derived cache anyway.

    Scalar-per-trial metrics are dense ``(n,)`` arrays; the ragged
    per-trial cycle lists are stored flat with CSR-style offsets
    (trial ``i`` owns ``cycle_durations[cycle_offsets[i]:cycle_offsets[i+1]]``);
    per-path byte counters are dense ``(n, P)`` matrices with ``P`` the
    highest path id seen plus one.
    """

    #: (n,) start-up delay in seconds; NaN where playback never started.
    startup: np.ndarray
    #: (n,) simulated finish time of each trial.
    finished_at: np.ndarray
    #: (n,) summed completed-stall seconds.
    total_stall: np.ndarray
    #: (n,) failover count.
    failovers: np.ndarray
    #: flat completed re-buffering cycle durations, trial-major.
    cycle_durations: np.ndarray
    #: (n+1,) CSR offsets into ``cycle_durations``.
    cycle_offsets: np.ndarray
    #: (n, P) video bytes per path, pre-buffering phase.
    prebuffer_bytes: np.ndarray
    #: (n, P) video bytes per path, after pre-buffering.
    rebuffer_bytes: np.ndarray
    #: (n,) stop reason strings (numpy unicode array).
    stop_reasons: np.ndarray

    @staticmethod
    def _byte_matrices(
        n: int, byte_dicts: Sequence[tuple[dict, dict]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sparse per-trial ``(pre, re)`` byte dicts → dense ``(n, P)``
        matrices, via COO triples and one fancy-index assignment each.

        The object-built reference batches of the test oracle
        (``tests/object_batches.py``) share it verbatim.
        """
        pre_rows: list[int] = []
        pre_cols: list[int] = []
        pre_vals: list[int] = []
        re_rows: list[int] = []
        re_cols: list[int] = []
        re_vals: list[int] = []
        for i, (pre, re) in enumerate(byte_dicts):
            for path_id, count in pre.items():
                pre_rows.append(i)
                pre_cols.append(path_id)
                pre_vals.append(count)
            for path_id, count in re.items():
                re_rows.append(i)
                re_cols.append(path_id)
                re_vals.append(count)
        paths = max(max(pre_cols, default=-1), max(re_cols, default=-1)) + 1
        prebuffer_bytes = np.zeros((n, paths), dtype=np.int64)
        rebuffer_bytes = np.zeros((n, paths), dtype=np.int64)
        if pre_rows:
            prebuffer_bytes[pre_rows, pre_cols] = pre_vals
        if re_rows:
            rebuffer_bytes[re_rows, re_cols] = re_vals
        return prebuffer_bytes, rebuffer_bytes

    @classmethod
    def from_dense_and_sides(
        cls, dense: dict[str, np.ndarray], sides: Sequence[SideRecord]
    ) -> "OutcomeBatch":
        """Assemble a batch from dense columns plus side records.

        The one assembly, whatever engine collected: ``dense`` holds
        the scalar columns filled from the units' dense rows (already
        float64/int64 arrays — adopted as-is, zero deserialization and
        zero copies), ``sides`` the ragged/string remainder.  The pass
        over the side records appends to plain Python lists and
        converts to arrays once; the CSR cycle layout performs the same
        ``ended - started`` subtractions ``RebufferCycle.duration``
        does.
        """
        n = len(sides)
        cycles: list[float] = []
        cycle_offsets: list[int] = [0]
        stop_reasons: list[str] = []
        byte_dicts: list[tuple[dict, dict]] = []
        for side in sides:
            cycles.extend(side.completed_cycle_durations())
            cycle_offsets.append(len(cycles))
            stop_reasons.append(side.stop_reason)
            byte_dicts.append(
                (side.prebuffer_bytes_by_path, side.rebuffer_bytes_by_path)
            )
        prebuffer_bytes, rebuffer_bytes = cls._byte_matrices(n, byte_dicts)
        return cls(
            startup=np.asarray(dense["startup"], dtype=float),
            finished_at=np.asarray(dense["finished_at"], dtype=float),
            total_stall=np.asarray(dense["total_stall"], dtype=float),
            failovers=np.asarray(dense["failovers"], dtype=np.int64),
            cycle_durations=np.asarray(cycles, dtype=float),
            cycle_offsets=np.asarray(cycle_offsets, dtype=np.int64),
            prebuffer_bytes=prebuffer_bytes,
            rebuffer_bytes=rebuffer_bytes,
            stop_reasons=np.asarray(stop_reasons, dtype=str),
        )

    def __len__(self) -> int:
        return len(self.startup)

    def column_mismatches(self, other: "OutcomeBatch") -> list[str]:
        """Names of columns that are not bit-identical to ``other``'s.

        The determinism predicate the test wall asserts on; see
        :func:`dense_field_mismatches` for the comparison semantics.
        """
        return dense_field_mismatches(self, other)

    # -- vectorized views ---------------------------------------------------

    def startup_delays(self) -> np.ndarray:
        """Defined start-up delays, trial order (Figs. 2–4)."""
        return self.startup[~np.isnan(self.startup)]

    def phase_bytes(self, phase: str) -> np.ndarray:
        """The ``(n, P)`` byte matrix for one phase, or their sum."""
        if phase == "prebuffer":
            return self.prebuffer_bytes
        if phase == "rebuffer":
            return self.rebuffer_bytes
        if phase == "all":
            return self.prebuffer_bytes + self.rebuffer_bytes
        raise ConfigError(f"unknown phase {phase!r}")

    def traffic_fractions(self, path_id: int, phase: str) -> np.ndarray:
        """Per-trial share of video bytes carried by ``path_id`` (Table 1).

        Matches ``QoEMetrics.traffic_fraction`` per row: trials that
        moved no bytes in the phase report 0.0, and a path id beyond
        anything observed reports 0.0 everywhere.
        """
        counts = self.phase_bytes(phase)
        totals = counts.sum(axis=1)
        # Bounds-checked on both sides: a negative path_id must report
        # 0.0 like the dict accessor, not numpy-wrap to the last column.
        share = (
            counts[:, path_id]
            if 0 <= path_id < counts.shape[1]
            else np.zeros(len(self))
        )
        return np.divide(
            share, totals, out=np.zeros(len(self)), where=totals > 0
        )


# ---------------------------------------------------------------------------
# Per-configuration results (accessors ride on the columnar batch)
# ---------------------------------------------------------------------------


class TrialResult:
    """One configuration's results across trials: the columnar batch
    assembled from the collected columns, and the trials' side records
    in trial order (what a reader needs beyond the batch — fig1's
    per-path delays, x2's ``server_bytes``)."""

    def __init__(self, label: str, batch: OutcomeBatch, sides: list[SideRecord]) -> None:
        self.label = label
        self.batch = batch
        self.sides = sides

    def __eq__(self, other: object) -> bool:
        # Value equality: the label, every column bit for bit, and the
        # side records.
        if not isinstance(other, TrialResult):
            return NotImplemented
        return (
            self.label == other.label
            and self.sides == other.sides
            and not self.batch.column_mismatches(other.batch)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TrialResult(label={self.label!r}, trials={len(self.batch)})"

    def startup_delays(self) -> list[float]:
        return self.batch.startup_delays().tolist()

    def cycle_durations(self) -> list[float]:
        return self.batch.cycle_durations.tolist()

    def traffic_fractions(self, path_id: int, phase: str) -> list[float]:
        return self.batch.traffic_fractions(path_id, phase).tolist()


# ---------------------------------------------------------------------------
# The campaign scheduler
# ---------------------------------------------------------------------------


class Campaign:
    """All configurations of a figure sweep, one pool submission.

    Usage::

        campaign = Campaign()
        for label, driver in configurations:
            campaign.add(runner.specs_for(label, driver))
        results = campaign.run(engine)      # {label: TrialResult}

    ``add`` accepts any spec batch (different runners, scenario
    configs, or profiles per configuration are fine); labels must be
    unique because they key the demultiplexed results.  A campaign is
    only a description of work: it holds no backend, and ``run`` takes
    the one to use.
    """

    def __init__(self) -> None:
        self._batches: list[list[TrialSpec]] = []
        self._labels: list[str] = []

    def add(self, specs: Sequence[TrialSpec]) -> "Campaign":
        """Register one configuration's trial batch; returns the campaign
        (so ``Campaign().add(specs).run(engine)`` reads as one line)."""
        specs = list(specs)
        if not specs:
            raise ConfigError("cannot add an empty trial batch to a campaign")
        labels = {spec.label for spec in specs}
        if len(labels) != 1:
            raise ConfigError(
                f"a campaign batch must share one label, got {sorted(labels)}"
            )
        label = specs[0].label
        if label in self._labels:
            raise ConfigError(f"duplicate campaign label {label!r}")
        self._labels.append(label)
        self._batches.append(specs)
        return self

    def add_run(self, runner, label: str, make_driver, scenario_hook=None) -> "Campaign":
        """Convenience: ``add(runner.specs_for(label, make_driver, hook))``."""
        return self.add(runner.specs_for(label, make_driver, scenario_hook))

    @property
    def labels(self) -> list[str]:
        return list(self._labels)

    def __len__(self) -> int:
        return sum(len(batch) for batch in self._batches)

    def run(self, engine: ExecutionEngine | None = None) -> dict[str, TrialResult]:
        """Execute every registered trial as one submission and demux.

        The engine collects in submission order, so slicing its columns
        back out by each spec's position reconstructs per-label results
        in trial order — identical to running the configurations one at
        a time.  Each label's ``OutcomeBatch`` is assembled directly
        from the collected dense columns and side records, whatever the
        engine.
        ``engine=None`` resolves one the way :func:`run_together` does.
        """
        return run_together([self], engine)[0]

    # -- the demux hook (overridden by other campaign kinds) ----------------

    def _result(
        self, label: str, dense: dict[str, np.ndarray], sides: list
    ) -> TrialResult:
        """Wrap one label's columnar slice: the batch assembled from
        it, and its side records."""
        return TrialResult(label, OutcomeBatch.from_dense_and_sides(dense, sides), sides)


def run_together(
    campaigns: Sequence[Campaign], engine=None, *, skip: Collection[int] = ()
) -> list[dict[str, TrialResult] | None]:
    """Run several same-kind campaigns as ONE engine submission.

    The merged-submission primitive under both :meth:`Campaign.run`
    (one campaign) and ``Study.grid`` (one campaign per grid cell): all
    campaigns' batches are round-robin interleaved — trial *i* of every
    batch before trial *i+1* of any — submitted once, and demultiplexed
    back per (campaign, label) by submission position.  Every spec
    carries its own derived seed, so each campaign's results are
    byte-identical to running it alone; what merging buys is pool
    utilization — no barrier between cells, every worker busy across
    cell boundaries.

    ``skip`` is the cache-aware partial-submission path: indices of
    campaigns whose results are already known (e.g. grid cells rebuilt
    from a :class:`~repro.study.cache.StudyCache`).  Skipped campaigns
    contribute nothing to the pool submission — a fully-skipped call
    never touches the engine at all — and their slots in the returned
    list are ``None``; the others are demultiplexed back per
    (campaign, label) in label order exactly as before, at their
    original positions.

    All campaigns must be the same class (their demux hook decides the
    result kind) and their specs must share one dense column layout,
    which same-kind campaigns do by construction.  ``engine=None``
    resolves a backend with :func:`~repro.sim.execution.resolve_engine`
    (``REPRO_JOBS``, else serial) — but only when the merged submission
    is non-empty, so a fully cached run never reads ``REPRO_JOBS``.
    """
    if not campaigns:
        return []
    kinds = {type(campaign) for campaign in campaigns}
    if len(kinds) != 1:
        names = sorted(kind.__name__ for kind in kinds)
        raise ConfigError(
            f"run_together needs same-kind campaigns, got {', '.join(names)}"
        )
    skipped = set(skip)
    unknown = skipped - set(range(len(campaigns)))
    if unknown:
        raise ConfigError(
            f"run_together skip indices {sorted(unknown)} out of range for "
            f"{len(campaigns)} campaign(s)"
        )
    batches: list[list] = []
    owners: list[int] = []
    for index, campaign in enumerate(campaigns):
        if index in skipped:
            continue
        for batch in campaign._batches:
            batches.append(batch)
            owners.append(index)
    merged: list = []
    merged_owner: list[int] = []
    for rank in range(max((len(batch) for batch in batches), default=0)):
        for batch, owner in zip(batches, owners, strict=True):
            if rank < len(batch):
                merged.append(batch[rank])
                merged_owner.append(owner)
    if merged:
        collection = collect_trials(resolve_engine(engine), merged)
    else:
        # Everything was skipped (or the campaigns were empty): no
        # submission, no engine resolution — a fully-cached rerun must
        # cost zero work units and must not even consult REPRO_JOBS.
        collection = None
    rows_by_key: dict[tuple[int, str], list[int]] = {}
    for position, (spec, owner) in enumerate(zip(merged, merged_owner, strict=True)):
        rows_by_key.setdefault((owner, spec.label), []).append(position)
    results: list[dict[str, TrialResult] | None] = []
    for index, campaign in enumerate(campaigns):
        if index in skipped:
            results.append(None)
            continue
        per_label: dict[str, TrialResult] = {}
        # ``collection`` exists whenever any label does: labels imply
        # non-empty batches, which imply a non-empty submission.
        for label in campaign._labels:
            rows = rows_by_key[(index, label)]
            dense = {name: column[rows] for name, column in collection.dense.items()}
            sides = [collection.sides[i] for i in rows]
            per_label[label] = campaign._result(label, dense, sides)
        results.append(per_label)
    return results
