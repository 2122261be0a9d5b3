"""Reference oracle: batches assembled from result objects.

Before every engine collected columnar, an in-process run built its
batches by walking the live result objects.  These are those
assemblers, kept verbatim as module functions:
``OutcomeBatch.from_outcomes``, ``PopulationBatch.from_results`` and
``EstimatorResult.batch``.  The one collection path
(``from_dense_and_sides`` over an arena and side records) must agree
with them bit for bit, dtypes included.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.analysis.ablation import EstimatorBatch, EstimatorTraceOutcome
from repro.ext.population import MultiClientResult
from repro.ext.population import POPULATION_COLUMNS, PopulationBatch, population_dense_row
from repro.sim.campaign import OutcomeBatch
from repro.sim.driver import SessionOutcome


def outcome_batch_from_outcomes(outcomes: Sequence[SessionOutcome]) -> OutcomeBatch:
    """One pass over the outcome objects; everything after is columnar.

    The pass appends to plain Python lists (amortized-O(1), much
    cheaper than per-element numpy stores) and converts to arrays
    once at the end; the sparse per-path byte dicts land in the
    dense matrices via a single fancy-index assignment each.
    """
    cls = OutcomeBatch
    n = len(outcomes)
    startup: list[float] = []
    finished_at: list[float] = []
    total_stall: list[float] = []
    failovers: list[int] = []
    cycles: list[float] = []
    cycle_offsets: list[int] = [0]
    stop_reasons: list[str] = []
    byte_dicts: list[tuple[dict, dict]] = []
    for outcome in outcomes:
        metrics = outcome.metrics
        delay = outcome.startup_delay
        startup.append(np.nan if delay is None else delay)
        finished_at.append(outcome.finished_at)
        total_stall.append(metrics.total_stall_time)
        failovers.append(metrics.failovers)
        cycles.extend(metrics.completed_cycle_durations())
        cycle_offsets.append(len(cycles))
        stop_reasons.append(outcome.stop_reason)
        byte_dicts.append(
            (metrics.prebuffer_bytes_by_path, metrics.rebuffer_bytes_by_path)
        )
    prebuffer_bytes, rebuffer_bytes = cls._byte_matrices(n, byte_dicts)
    return cls(
        startup=np.asarray(startup, dtype=float),
        finished_at=np.asarray(finished_at, dtype=float),
        total_stall=np.asarray(total_stall, dtype=float),
        failovers=np.asarray(failovers, dtype=np.int64),
        cycle_durations=np.asarray(cycles, dtype=float),
        cycle_offsets=np.asarray(cycle_offsets, dtype=np.int64),
        prebuffer_bytes=prebuffer_bytes,
        rebuffer_bytes=rebuffer_bytes,
        stop_reasons=np.asarray(stop_reasons, dtype=str),
    )


def population_batch_from_results(results: Sequence[MultiClientResult]) -> PopulationBatch:
    """In-process assembly: aggregate each materialized result
    through the same :func:`population_dense_row` the workers use."""
    cls = PopulationBatch
    rows = [population_dense_row(result) for result in results]
    dense = {
        name: np.asarray([row[name] for row in rows], dtype=dtype)
        for name, dtype in POPULATION_COLUMNS
    }
    return cls._from_csr_source(
        dense, [result.startup_delays() for result in results]
    )


def estimator_batch_from_outcomes(outcomes: Sequence[EstimatorTraceOutcome]) -> EstimatorBatch:
    """The estimator column, read off the outcome objects."""
    return EstimatorBatch(
        mean_error=np.asarray(
            [outcome.mean_error for outcome in outcomes], dtype=np.float64
        )
    )
