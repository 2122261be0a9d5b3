"""Estimator-ablation work units (EXP-X3) for the execution engines.

EXP-X3 used to be a bare loop inside its experiment function, which
made it the one experiment that silently ignored the ``jobs`` knob the
rest of the surface honors.  This module makes each estimator's trace
walk a first-class :class:`~repro.sim.execution.WorkSpec` — the third
spec kind after :class:`~repro.sim.execution.TrialSpec` and
:class:`~repro.ext.population.PopulationSpec` — so the ablation rides
the same serial/process engines, the same columnar collection, and the
same byte-identity bar as every campaign:

* :class:`EstimatorTraceSpec.run` regenerates the bursty trace from its
  seed (every spec shares the seed, so every estimator faces the same
  trace — exactly the retired loop's semantics) and walks one estimator
  over it;
* the dense row is the single ``mean_error`` scalar
  (:data:`ESTIMATOR_COLUMNS`); the side record is the estimator name;
* :class:`EstimatorCampaign` demultiplexes into per-estimator
  :class:`EstimatorResult`s whose columnar :class:`EstimatorBatch`
  plugs into the same :func:`~repro.sim.campaign.dense_field_mismatches`
  determinism predicate (and the study archive's column extraction) as
  the other batch kinds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from ..core.estimators import make_estimator
from ..sim.campaign import Campaign, dense_field_mismatches
from ..sim.shm import ColumnLayout

__all__ = [
    "BASE_RATE",
    "ESTIMATOR_COLUMNS",
    "EstimatorBatch",
    "EstimatorCampaign",
    "EstimatorResult",
    "EstimatorTraceOutcome",
    "EstimatorTraceSpec",
    "burst_trace",
]

#: The sustainable base rate the §3.3 burst trace oscillates around.
BASE_RATE = 1_000_000.0

#: Dense column layout: one scalar per estimator work unit.
ESTIMATOR_COLUMNS: ColumnLayout = (("mean_error", np.float64),)


def burst_trace(seed: int, samples: int, base: float = BASE_RATE) -> list[float]:
    """The §3.3 synthetic trace: a stable base rate with ~6 % chance of
    an 8× burst per sample, floored at 10 % of base.

    Regenerated from the seed on whichever process runs the spec — the
    arithmetic (and therefore the float64 bits) is identical serial or
    pooled.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    trace = []
    for _ in range(samples):
        if rng.random() < 0.06:
            trace.append(base * 8.0 * (1.0 + 0.2 * rng.random()))
        else:
            trace.append(base * (1.0 + 0.15 * rng.standard_normal()))
    return [max(value, base * 0.1) for value in trace]


class EstimatorTraceOutcome(NamedTuple):
    """One estimator's tracking error over the trace."""

    estimator: str
    mean_error: float


@dataclass(frozen=True)
class EstimatorTraceSpec:
    """One estimator's walk over the burst trace, self-contained."""

    label: str
    trial: int
    seed: int
    estimator: str
    samples: int
    alpha: float = 0.9
    window: int = 8
    #: Samples ignored before the error average (estimator warm-up).
    warmup: int = 20

    #: Column layout for collection (see ``WorkSpec``).
    dense_columns: ClassVar[ColumnLayout] = ESTIMATOR_COLUMNS

    def run(self) -> EstimatorTraceOutcome:
        trace = burst_trace(self.seed, self.samples)
        estimator = make_estimator(
            self.estimator, alpha=self.alpha, window=self.window
        )
        errors = []
        for value in trace:
            estimator.update(value)
            errors.append(abs(estimator.estimate - BASE_RATE) / BASE_RATE)
        return EstimatorTraceOutcome(
            self.estimator, float(np.mean(errors[self.warmup :]))
        )

    def dense_row(self, result: EstimatorTraceOutcome) -> tuple:
        return (result.mean_error,)

    def encode_side(self, result: EstimatorTraceOutcome) -> str:
        """The side record: the estimator name (the scalar is dense)."""
        return result.estimator


@dataclass(frozen=True, eq=False)
class EstimatorBatch:
    """Columnar view of one label's outcomes (a single column here —
    the point is protocol uniformity: archives and determinism checks
    enumerate ndarray dataclass fields, whatever the batch kind)."""

    mean_error: np.ndarray

    def __len__(self) -> int:
        return len(self.mean_error)

    def column_mismatches(self, other: "EstimatorBatch") -> list[str]:
        return dense_field_mismatches(self, other)


class EstimatorResult:
    """One estimator label's columnar batch (one row per registered
    trial)."""

    def __init__(self, label: str, batch: EstimatorBatch) -> None:
        self.label = label
        self.batch = batch

    @property
    def mean_error(self) -> float:
        """The (single-trial) tracking error for this estimator."""
        return float(self.batch.mean_error[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EstimatorResult(label={self.label!r}, n={len(self.batch)})"


class EstimatorCampaign(Campaign):
    """Campaign demux for estimator work units."""

    def _result(
        self, label: str, dense: dict[str, np.ndarray], sides: list
    ) -> EstimatorResult:
        return EstimatorResult(label, EstimatorBatch(mean_error=dense["mean_error"]))
