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
* the spec kind's batch is :class:`EstimatorBatch`: the one
  :class:`~repro.sim.campaign.Campaign` assembles each estimator's
  rows into it, and it plugs into the same
  :func:`~repro.sim.shm.dense_field_mismatches` determinism predicate
  (and the study archive's column extraction) as the other batch kinds.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from ..core.estimators import make_estimator
from ..sim.shm import ColumnLayout, dense_field_mismatches

__all__ = [
    "BASE_RATE",
    "ESTIMATOR_COLUMNS",
    "EstimatorBatch",
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


@dataclass(frozen=True, eq=False)
class EstimatorBatch:
    """Columnar view of one label's outcomes (a single column here —
    the point is protocol uniformity: archives and determinism checks
    enumerate ndarray dataclass fields, whatever the batch kind)."""

    mean_error: np.ndarray

    @classmethod
    def from_dense_and_sides(
        cls, dense: dict[str, np.ndarray], sides: Sequence[str]
    ) -> "EstimatorBatch":
        """Adopt the one dense column; the side records (estimator
        names) carry nothing the batch needs."""
        return cls(mean_error=dense["mean_error"])

    def __len__(self) -> int:
        return len(self.mean_error)

    def column_mismatches(self, other: "EstimatorBatch") -> list[str]:
        return dense_field_mismatches(self, other)


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

    #: Column layout and batch class for collection (see ``WorkSpec``).
    dense_columns: ClassVar[ColumnLayout] = ESTIMATOR_COLUMNS
    batch: ClassVar[type] = EstimatorBatch

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
