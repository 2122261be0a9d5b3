"""Property-based round trips for the columnar outcome pipeline.

Hypothesis generates adversarial ``SessionOutcome`` populations —
random trial counts (including none), trials with no completed cycles,
zero-byte phases (empty per-path dicts), sparse/high path ids, mixed
stop reasons, never-started playback — and asserts that:

* the batch every engine assembles (in-process arena + side records →
  ``OutcomeBatch.from_dense_and_sides``) agrees exactly with per-trial
  Python loops over the outcome objects, accessor by accessor;
* the side channel is lossless: after a real pickle round trip, every
  field of ``encode_side(o)`` equals the field of ``o`` it came from,
  and the side record plus the dense row carry every field of ``o``;
* ``from_dense_and_sides`` over a shared arena and pickled side records
  is bit-identical, dtypes included, to the batch built from the
  outcome objects by the oracle in ``tests/object_batches.py``.

Examples are derandomized: the suite is a determinism wall, so the
property tests themselves must not flake.
"""

from __future__ import annotations

import math
import pickle
from dataclasses import fields

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import assert_batches_identical
from object_batches import outcome_batch_from_outcomes
from repro.core.metrics import QoEMetrics, RebufferCycle, StallEvent
from repro.sim.campaign import OutcomeBatch
from repro.sim.driver import SessionOutcome
from repro.sim.shm import (
    DENSE_COLUMNS,
    OutcomeArena,
    SideRecord,
    collect_units,
    dense_row,
    encode_side,
)

# Simulated timestamps: finite, non-negative.  NaN is excluded because
# the round-trip assertions use ``==`` on side-record fields.
times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
maybe_time = st.none() | times
path_ids = st.integers(min_value=0, max_value=5)
# Byte counts stay below 2**40: the columnar traffic fractions divide
# int64 matrices as float64, while QoEMetrics divides Python ints with
# correct rounding — identical only while counts are exactly
# representable as doubles (real campaigns move ~1e8 bytes).
byte_counts = st.integers(min_value=0, max_value=2**40)
byte_dicts = st.dictionaries(path_ids, byte_counts, max_size=4)
stop_reasons = st.sampled_from(
    ["prebuffer-complete", "cycles-complete", "playback-finished", "failed: no paths", ""]
)


@st.composite
def outcomes(draw) -> SessionOutcome:
    stalls = [
        StallEvent(started_at=draw(times), ended_at=draw(maybe_time))
        for _ in range(draw(st.integers(0, 3)))
    ]
    cycles = [
        RebufferCycle(
            started_at=draw(times),
            ended_at=draw(maybe_time),  # None: cycle still open — excluded from CSR
            level_at_start_s=draw(times),
        )
        for _ in range(draw(st.integers(0, 4)))
    ]
    metrics = QoEMetrics(
        session_started_at=draw(times),
        playback_started_at=draw(maybe_time),  # None: playback never started
        prebuffer_completed_at=draw(maybe_time),
        playback_finished_at=draw(maybe_time),
        download_completed_at=draw(maybe_time),
        prebuffer_bytes_by_path=draw(byte_dicts),
        rebuffer_bytes_by_path=draw(byte_dicts),
        requests_by_path=draw(st.dictionaries(path_ids, st.integers(0, 1000), max_size=4)),
        active_time_by_path=draw(st.dictionaries(path_ids, times, max_size=4)),
        path_bootstrap=draw(
            st.dictionaries(path_ids, st.tuples(times, times), max_size=4)
        ),
        stalls=stalls,
        rebuffer_cycles=cycles,
        failovers=draw(st.integers(0, 5)),
        peak_out_of_order=draw(st.integers(0, 64)),
    )
    return SessionOutcome(
        metrics=metrics,
        finished_at=draw(times),
        stop_reason=draw(stop_reasons),
        peak_out_of_order=metrics.peak_out_of_order,
        path_json_delay=draw(st.dictionaries(path_ids, times, max_size=2)),
        path_first_video_delay=draw(st.dictionaries(path_ids, times, max_size=2)),
        server_bytes=draw(
            st.dictionaries(
                st.sampled_from(["v1.cdn", "v2.cdn", "v3.cdn"]), byte_counts, max_size=3
            )
        ),
        requests_by_path=draw(st.dictionaries(path_ids, st.integers(0, 1000), max_size=4)),
    )


outcome_lists = st.lists(outcomes(), min_size=0, max_size=12)

#: One shared profile: examples must be reproducible run over run (and
#: cheap enough that tier-1 stays fast — 25 examples × 8 properties).
DETERMINISTIC = settings(max_examples=25, deadline=None, database=None, derandomize=True)


def collected(population: list[SessionOutcome]) -> OutcomeBatch:
    """The batch an in-process collection assembles from these outcomes."""
    collection = collect_units((dense_row(o), encode_side(o)) for o in population)
    return OutcomeBatch.from_dense_and_sides(collection.dense, collection.sides)


class TestCollectedBatchAgainstLoops:
    """The columnar view vs per-trial Python loops, accessor by accessor."""

    @given(outcome_lists)
    @DETERMINISTIC
    def test_scalar_columns_match_loops(self, population):
        batch = collected(population)
        assert len(batch) == len(population)
        expected_startup = [
            math.nan if o.startup_delay is None else o.startup_delay
            for o in population
        ]
        assert [
            math.isnan(v) if math.isnan(e) else v == e
            for v, e in zip(batch.startup.tolist(), expected_startup, strict=True)
        ] == [True] * len(population)
        assert batch.finished_at.tolist() == [o.finished_at for o in population]
        assert batch.total_stall.tolist() == [
            o.metrics.total_stall_time for o in population
        ]
        assert batch.failovers.tolist() == [o.metrics.failovers for o in population]
        assert batch.stop_reasons.tolist() == [o.stop_reason for o in population]

    @given(outcome_lists)
    @DETERMINISTIC
    def test_startup_delays_filter_matches_loop(self, population):
        batch = collected(population)
        assert batch.startup_delays().tolist() == [
            o.startup_delay for o in population if o.startup_delay is not None
        ]

    @given(outcome_lists)
    @DETERMINISTIC
    def test_cycle_csr_matches_loop(self, population):
        batch = collected(population)
        flat: list[float] = []
        for i, outcome in enumerate(population):
            durations = outcome.metrics.completed_cycle_durations()
            start, end = batch.cycle_offsets[i], batch.cycle_offsets[i + 1]
            assert batch.cycle_durations[start:end].tolist() == durations
            flat.extend(durations)
        assert batch.cycle_durations.tolist() == flat
        assert batch.cycle_offsets[0] == 0
        assert batch.cycle_offsets[-1] == len(flat)

    @given(outcome_lists, st.integers(-1, 6), st.sampled_from(["prebuffer", "rebuffer", "all"]))
    @DETERMINISTIC
    def test_traffic_fractions_match_metrics(self, population, path_id, phase):
        batch = collected(population)
        assert batch.traffic_fractions(path_id, phase).tolist() == [
            o.metrics.traffic_fraction(path_id, phase) for o in population
        ]


#: Side-record fields that carry a ``QoEMetrics`` field whose name the
#: outcome itself also uses, prefixed to tell the two apart.
METRICS_PREFIX = "metrics_"


def _source(outcome: SessionOutcome, name: str):
    """The outcome field a side-record field is encoded from."""
    metrics = outcome.metrics
    if name == "stalls":
        return [(stall.started_at, stall.ended_at) for stall in metrics.stalls]
    if name == "rebuffer_cycles":
        return [
            (cycle.started_at, cycle.ended_at, cycle.level_at_start_s)
            for cycle in metrics.rebuffer_cycles
        ]
    if name.startswith(METRICS_PREFIX):
        return getattr(metrics, name.removeprefix(METRICS_PREFIX))
    if name in {field.name for field in fields(SessionOutcome)}:
        return getattr(outcome, name)
    return getattr(metrics, name)


class TestSideChannelRoundTrip:
    """encode_side → (pickle) keeps every field of its outcome."""

    @given(outcomes())
    @DETERMINISTIC
    def test_every_side_field_survives_the_pipe(self, outcome):
        # The side record actually crosses a process boundary pickled;
        # round-trip through pickle like the pool pipe does.
        side = pickle.loads(pickle.dumps(encode_side(outcome)))
        for name in SideRecord._fields:
            value = getattr(side, name)
            if name in ("stalls", "rebuffer_cycles"):
                value = list(value)
            assert value == _source(outcome, name), name

    def test_side_record_and_dense_row_carry_every_outcome_field(self):
        dense = {name for name, _dtype in DENSE_COLUMNS}
        outcome_fields = {field.name for field in fields(SessionOutcome)} - {"metrics"}
        metrics_fields = {field.name for field in fields(QoEMetrics)}
        side_fields = set(SideRecord._fields)
        assert outcome_fields - side_fields == {"finished_at"} <= dense
        carried = {
            name.removeprefix(METRICS_PREFIX) for name in side_fields - outcome_fields
        }
        assert metrics_fields - carried == {"failovers"} <= dense
        # Each metrics field the outcome shares a name with is carried
        # under the prefix, the outcome's own under the bare name.
        assert {name for name in side_fields if name.startswith(METRICS_PREFIX)} == {
            METRICS_PREFIX + name for name in outcome_fields & metrics_fields
        }


class TestColumnarAssemblyIdentity:
    """from_dense_and_sides == the object-built oracle, bit for bit."""

    @given(outcome_lists)
    @DETERMINISTIC
    def test_arena_plus_sides_assemble_identically(self, population):
        reference = outcome_batch_from_outcomes(population)
        assert_batches_identical(collected(population), reference)
        # What a pool worker sends: the (dense_row, side) pair, pickled.
        units = [
            pickle.loads(pickle.dumps((dense_row(o), encode_side(o))))
            for o in population
        ]
        collection = collect_units(units)
        assembled = OutcomeBatch.from_dense_and_sides(collection.dense, collection.sides)
        assert_batches_identical(assembled, reference)

    @given(outcome_lists)
    @DETERMINISTIC
    def test_arena_columns_match_loops(self, population):
        arena = OutcomeArena.create(len(population))
        try:
            for i, outcome in enumerate(population):
                arena.write(i, outcome)
            dense = arena.read_columns()
        finally:
            arena.destroy()
        assert np.array_equal(
            dense["startup"],
            np.asarray(
                [
                    np.nan if o.startup_delay is None else o.startup_delay
                    for o in population
                ],
                dtype=float,
            ),
            equal_nan=True,
        )
        assert dense["finished_at"].tolist() == [o.finished_at for o in population]
        assert dense["total_stall"].tolist() == [
            o.metrics.total_stall_time for o in population
        ]
        assert dense["failovers"].tolist() == [
            o.metrics.failovers for o in population
        ]
