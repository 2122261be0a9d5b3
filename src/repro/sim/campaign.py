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

A campaign holds specs of any one :class:`~repro.sim.execution.WorkSpec`
kind — per-trial, population or estimator units — and the kind decides
the result: each label's rows are assembled into the batch class the
spec kind names (``spec.batch``).

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

Aggregation: trial outcomes land in a columnar
:class:`~repro.sim.shm.OutcomeBatch` — numpy arrays for start-up
delays, completed cycle durations (CSR layout), and per-path/per-phase
traffic bytes — so the analysis layer computes statistics with O(1)
vectorized passes per campaign instead of Python loops per trial.
"""

from __future__ import annotations

from collections.abc import Collection, Sequence
from typing import Any

from ..errors import ConfigError
from .execution import ExecutionEngine, WorkSpec, resolve_engine
# OutcomeBatch lives beside the per-trial layout; the end-to-end
# benchmark imports it from here.
from .shm import OutcomeBatch, collect_trials

__all__ = [
    "Campaign",
    "OutcomeBatch",
    "TrialResult",
    "run_together",
]


# ---------------------------------------------------------------------------
# Per-configuration results (accessors ride on the columnar batch)
# ---------------------------------------------------------------------------


class TrialResult:
    """One configuration's results across its work units, whatever the
    spec kind: the columnar batch (the kind's ``batch`` class —
    :class:`OutcomeBatch` for trials, ``PopulationBatch`` per policy,
    ``EstimatorBatch`` per estimator) assembled from the collected
    columns, and the units' side records in trial order (what a reader
    needs beyond the batch — fig1's per-path delays, x2's
    ``server_bytes``)."""

    def __init__(self, label: str, batch: Any, sides: list) -> None:
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
        self._batches: list[list[WorkSpec]] = []
        self._labels: list[str] = []

    def add(self, specs: Sequence[WorkSpec]) -> "Campaign":
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
        a time.  Each label's batch is assembled directly from the
        collected dense columns and side records, whatever the engine.
        ``engine=None`` resolves one the way :func:`run_together` does.
        """
        return run_together([self], engine)[0]


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

    Every spec of every campaign passed, skipped or not, must name the
    same ``batch`` class: the spec kind decides each label's batch and
    its dense column layout, and a mixed submission is refused before
    any engine is resolved or any spec runs.  ``engine=None``
    resolves a backend with :func:`~repro.sim.execution.resolve_engine`
    (``REPRO_JOBS``, else serial) — but only when the merged submission
    is non-empty, so a fully cached run never reads ``REPRO_JOBS``.
    """
    kinds = {
        spec.batch for campaign in campaigns for batch in campaign._batches for spec in batch
    }
    if len(kinds) > 1:
        names = sorted(kind.__name__ for kind in kinds)
        raise ConfigError(
            f"run_together needs same-kind campaigns, got specs of {', '.join(names)}"
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
        for label, specs in zip(campaign._labels, campaign._batches, strict=True):
            rows = rows_by_key[(index, label)]
            dense = {name: column[rows] for name, column in collection.dense.items()}
            sides = [collection.sides[i] for i in rows]
            per_label[label] = TrialResult(
                label, specs[0].batch.from_dense_and_sides(dense, sides), sides
            )
        results.append(per_label)
    return results
