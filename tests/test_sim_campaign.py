"""Campaign scheduling and columnar aggregation.

The acceptance bar: interleaving *all* configurations of a figure sweep
into one pool submission must change nothing about the per-label
results — byte-identical columns and equal side records to running
each configuration as a campaign of its own, whatever the backend
(serial, process-shm, auto).  The
columnar ``OutcomeBatch`` must agree exactly with the per-trial
Python-loop accessors it replaced.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import assert_batches_identical
from object_batches import outcome_batch_from_outcomes
from repro.analysis.ablation import EstimatorCampaign, EstimatorTraceSpec
from repro.core.config import PlayerConfig
from repro.errors import ConfigError
from repro.sim.campaign import Campaign, OutcomeBatch, TrialResult, run_together
from repro.sim.execution import ProcessEngine, SerialEngine, resolve_engine
from repro.sim.profiles import testbed_profile, youtube_profile
from repro.sim.runner import TrialRunner
from repro.sim.scenario import ScenarioConfig
from repro.sim.shm import encode_side
from repro.units import KB, format_size

#: Every collection path a campaign can run on.  Factories, not
#: instances — each test gets a fresh engine.
BACKENDS = [
    pytest.param(SerialEngine, id="serial"),
    pytest.param(lambda: resolve_engine("auto"), id="auto"),
    pytest.param(lambda: ProcessEngine(2), id="process-shm"),
    # Three workers cut the specs into other chunks than two do.
    pytest.param(lambda: ProcessEngine(3), id="process-shm-3"),
]


def short_config() -> ScenarioConfig:
    return ScenarioConfig(video_duration_s=120.0)


def _spec(label: str, trial: int) -> EstimatorTraceSpec:
    """A cheap real work unit whose result depends on its trial."""
    return EstimatorTraceSpec(
        label=label, trial=trial, seed=trial, estimator="ewma", samples=40
    )


class RecordingEngine:
    """A map-only engine that records each submission."""

    def __init__(self) -> None:
        self.submissions: list[list] = []

    def map(self, specs):
        self.submissions.append(list(specs))
        return [spec.run() for spec in specs]


class TestInterleave:
    """``run_together``'s one submission order: trial i of every batch
    before trial i+1 of any; per-label results stay in trial order."""

    def test_round_robin_order(self):
        campaign = (
            EstimatorCampaign()
            .add([_spec("a", 0), _spec("a", 1), _spec("a", 2)])
            .add([_spec("b", 0), _spec("b", 1)])
        )
        other = EstimatorCampaign().add([_spec("c", 0)])
        engine = RecordingEngine()
        results = run_together([campaign, other], engine)
        [submitted] = engine.submissions
        assert [(s.label, s.trial) for s in submitted] == [
            ("a", 0), ("b", 0), ("c", 0),
            ("a", 1), ("b", 1),
            ("a", 2),
        ]
        def errors(trials):
            return [_spec("x", trial).run().mean_error for trial in trials]

        assert len(set(errors([0, 1, 2]))) == 3  # the trials are told apart
        assert results[0]["a"].batch.mean_error.tolist() == errors([0, 1, 2])
        assert results[0]["b"].batch.mean_error.tolist() == errors([0, 1])
        assert results[1]["c"].batch.mean_error.tolist() == errors([0])

    def test_empty(self, monkeypatch):
        # Nothing to submit: the engine is never called, and an unset
        # backend is never resolved (a broken REPRO_JOBS stays unread).
        engine = RecordingEngine()
        assert run_together([], engine) == []
        skipped = Campaign().add([_spec("a", 0)])
        assert run_together([skipped], engine, skip=[0]) == [None]
        assert engine.submissions == []
        monkeypatch.setenv("REPRO_JOBS", "not-a-backend")
        assert run_together([skipped], skip=[0]) == [None]
        with pytest.raises(ConfigError, match="not-a-backend"):
            run_together([skipped])


class TestCampaignAPI:
    def test_rejects_empty_batch(self):
        with pytest.raises(ConfigError, match="empty"):
            Campaign().add([])

    def test_rejects_mixed_labels(self):
        with pytest.raises(ConfigError, match="one label"):
            Campaign().add([_spec("a", 0), _spec("b", 0)])

    def test_rejects_duplicate_labels(self):
        campaign = Campaign()
        campaign.add([_spec("a", 0)])
        with pytest.raises(ConfigError, match="duplicate"):
            campaign.add([_spec("a", 1)])

    def test_len_and_labels(self):
        campaign = Campaign()
        campaign.add([_spec("a", 0), _spec("a", 1)])
        campaign.add([_spec("b", 0)])
        assert len(campaign) == 3
        assert campaign.labels == ["a", "b"]


def _fig3_mini_configs() -> list[tuple[str, PlayerConfig]]:
    configs = []
    for prebuffer in (20.0,):
        for chunk in (64 * KB,):
            for scheduler in ("harmonic", "ewma", "ratio"):
                config = PlayerConfig(
                    prebuffer_s=prebuffer, scheduler=scheduler, base_chunk_bytes=chunk
                )
                label = f"{scheduler}/{format_size(chunk)}/{prebuffer:.0f}s"
                configs.append((label, config))
    return configs


def _assert_results_identical(campaign_result: TrialResult, barrier_result: TrialResult):
    assert campaign_result.label == barrier_result.label
    # The whole columnar batch, bit for bit — not just the accessors.
    assert_batches_identical(campaign_result.batch, barrier_result.batch)
    assert campaign_result.startup_delays() == barrier_result.startup_delays()
    assert campaign_result.cycle_durations() == barrier_result.cycle_durations()
    assert campaign_result.traffic_fractions(0, "prebuffer") == (
        barrier_result.traffic_fractions(0, "prebuffer")
    )
    # Every per-trial field the batch does not carry (stalls, per-path
    # delays, server bytes, ...), one side record per trial.
    assert campaign_result.sides == barrier_result.sides


def _solo(runner, label, make_driver):
    """One configuration run as a campaign of its own, serially."""
    return Campaign().add_run(runner, label, make_driver).run(SerialEngine())[label]


class TestCampaignDeterminism:
    """Merged campaign == one solo campaign per label, bytewise."""

    @pytest.mark.parametrize("make_engine", BACKENDS)
    def test_fig3_style_sweep_matches_per_configuration_path(self, make_engine):
        runner = TrialRunner(
            testbed_profile, scenario_config=short_config(), root_seed=2015, trials=3
        )
        campaign = Campaign()
        for label, config in _fig3_mini_configs():
            campaign.add_run(runner, label, runner.msplayer(config))
        campaign_results = campaign.run(make_engine())

        for label, config in _fig3_mini_configs():
            _assert_results_identical(
                campaign_results[label], _solo(runner, label, runner.msplayer(config))
            )

    @pytest.mark.parametrize("make_engine", BACKENDS)
    def test_table1_style_sweep_matches_per_configuration_path(self, make_engine):
        """Table 1's shape: one runner per duration (different scenario
        configs), all registered in a single campaign."""

        def runners():
            for duration in (20.0, 40.0):
                scenario_config = ScenarioConfig(video_duration_s=max(300.0, duration * 8))
                runner = TrialRunner(
                    youtube_profile,
                    scenario_config=scenario_config,
                    root_seed=2018,
                    trials=2,
                )
                config = PlayerConfig(prebuffer_s=duration, rebuffer_fetch_s=duration)
                yield duration, runner, config

        campaign = Campaign()
        for duration, runner, config in runners():
            campaign.add_run(
                runner,
                f"t1-{duration}",
                runner.msplayer(config, stop="cycles", target_cycles=3),
            )
        campaign_results = campaign.run(make_engine())

        for duration, runner, config in runners():
            reference = _solo(
                runner,
                f"t1-{duration}",
                runner.msplayer(config, stop="cycles", target_cycles=3),
            )
            _assert_results_identical(campaign_results[f"t1-{duration}"], reference)
            campaign_batch = campaign_results[f"t1-{duration}"].batch
            for phase in ("prebuffer", "rebuffer"):
                assert campaign_batch.traffic_fractions(0, phase).tolist() == (
                    reference.traffic_fractions(0, phase)
                )


class TestOutcomeBatch:
    """The columnar view agrees exactly with per-outcome Python loops."""

    @staticmethod
    def _specs(label: str = "batch", trials: int = 4) -> list:
        runner = TrialRunner(
            testbed_profile, scenario_config=short_config(), root_seed=99, trials=trials
        )
        return runner.specs_for(
            label, runner.msplayer(PlayerConfig(), stop="cycles", target_cycles=1)
        )

    @classmethod
    def _run(cls, label: str = "batch", trials: int = 4) -> TrialResult:
        return Campaign().add(cls._specs(label, trials)).run(SerialEngine())[label]

    @pytest.fixture(scope="class")
    def result(self) -> TrialResult:
        return self._run()

    @pytest.fixture(scope="class")
    def outcomes(self) -> list:
        """The same trials' live outcome objects."""
        return [spec.run() for spec in self._specs()]

    def test_side_records_are_the_outcomes_encoding(self, result, outcomes):
        assert result.sides == [encode_side(o) for o in outcomes]

    def test_startup_delays_match_loop(self, result, outcomes):
        expected = [
            o.startup_delay for o in outcomes if o.startup_delay is not None
        ]
        assert result.startup_delays() == expected
        assert result.batch.startup_delays().dtype == np.float64

    def test_cycle_durations_csr_layout(self, result, outcomes):
        batch = result.batch
        expected: list[float] = []
        for i, outcome in enumerate(outcomes):
            durations = outcome.metrics.completed_cycle_durations()
            start, end = batch.cycle_offsets[i], batch.cycle_offsets[i + 1]
            assert batch.cycle_durations[start:end].tolist() == durations
            expected.extend(durations)
        assert result.cycle_durations() == expected

    def test_traffic_fractions_match_metrics(self, result, outcomes):
        for path_id in (0, 1):
            for phase in ("prebuffer", "rebuffer", "all"):
                expected = [o.metrics.traffic_fraction(path_id, phase) for o in outcomes]
                assert result.batch.traffic_fractions(path_id, phase).tolist() == expected

    def test_out_of_range_path_is_zero(self, result, outcomes):
        # Both sides: beyond the widest path id, and negative (which
        # must not numpy-wrap to the last column).
        for path_id in (99, -1):
            expected = [
                o.metrics.traffic_fraction(path_id, "prebuffer")
                for o in outcomes
            ]
            assert result.batch.traffic_fractions(path_id, "prebuffer").tolist() == (
                expected
            )

    def test_batches_compare_by_identity(self, result, outcomes):
        batch = result.batch
        assert batch == batch
        assert batch != outcome_batch_from_outcomes(outcomes)

    def test_unknown_phase_rejected(self, result):
        with pytest.raises(ConfigError, match="phase"):
            result.batch.phase_bytes("warmup")

    def test_scalar_columns(self, result, outcomes):
        batch = result.batch
        assert batch.finished_at.tolist() == [o.finished_at for o in outcomes]
        assert batch.total_stall.tolist() == [
            o.metrics.total_stall_time for o in outcomes
        ]
        assert batch.failovers.tolist() == [
            o.metrics.failovers for o in outcomes
        ]
        assert batch.stop_reasons.tolist() == [o.stop_reason for o in outcomes]

    def test_empty_batch(self):
        collection = SerialEngine().collect([])
        batch = OutcomeBatch.from_dense_and_sides(collection.dense, collection.sides)
        assert len(batch) == 0
        assert batch.startup_delays().size == 0
        assert batch.prebuffer_bytes.shape == (0, 0)
        assert collection.sides == []

    def test_results_compare_by_value(self, result):
        assert result == self._run()
        assert result != self._run(label="other")
        assert result != self._run(trials=1)
        assert result.__eq__(42) is NotImplemented

    def test_column_mismatches_flags_exactly_the_diverged_column(self, result, outcomes):
        batch = result.batch
        assert batch.column_mismatches(batch) == []
        built = outcome_batch_from_outcomes(outcomes)
        assert batch.column_mismatches(built) == []
        built.finished_at[0] += 1.0
        assert batch.column_mismatches(built) == ["finished_at"]
