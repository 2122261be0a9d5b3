"""Population campaigns: whole populations as parallel work units.

The acceptance bar mirrors the trial campaigns': a population campaign
must produce bit-identical per-policy batches — and side records equal
to the specs' own encoding of each population — across serial and
process-shm collection for a fixed root seed.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from conftest import assert_collected, study_result
from object_batches import population_batch_from_results
from repro.ext.multi_client import MultiClientExperiment
from repro.ext.population import (
    POPULATION_COLUMNS,
    MultiClientResult,
    PopulationBatch,
    PopulationCampaign,
    PopulationResult,
    PopulationSpec,
    population_dense_row,
)
from repro.sim.execution import ProcessEngine, SerialEngine, resolve_engine
from repro.sim.profiles import testbed_profile
from repro.sim.shm import OutcomeArena, collect_trials, encode_side

#: Every collection path a population campaign can run on (factories —
#: each test gets a fresh engine).
BACKENDS = [
    pytest.param(lambda: resolve_engine("auto"), id="auto"),
    pytest.param(lambda: ProcessEngine(2), id="process-shm"),
    # Three workers cut the specs into other chunks than two do.
    pytest.param(lambda: ProcessEngine(3), id="process-shm-3"),
]


def small_experiment(seed: int = 5) -> MultiClientExperiment:
    return MultiClientExperiment(
        testbed_profile, client_count=2, video_duration_s=60.0, seed=seed
    )


class TestPopulationSpec:
    def test_a_spec_is_a_replicate_of_an_experiment(self):
        """Five fields, each read by ``run``: no spec carries a field its
        ``run`` ignores."""
        assert [f.name for f in dataclasses.fields(PopulationSpec)] == [
            "label",
            "trial",
            "seed",
            "policy",
            "experiment",
        ]
        experiment = small_experiment()
        assert experiment.specs_for("rotate", 2)[1].experiment is experiment

    def test_specs_are_picklable(self):
        specs = small_experiment().specs_for("rotate", 3)
        assert [s.trial for s in pickle.loads(pickle.dumps(specs))] == [0, 1, 2]

    def test_replicate_seeds_are_policy_independent(self):
        experiment = small_experiment()
        static = experiment.specs_for("static", 2)
        rotate = experiment.specs_for("rotate", 2)
        assert [s.seed for s in static] == [s.seed for s in rotate]
        assert static[0].seed != static[1].seed

    def test_run_reproducible(self):
        spec = small_experiment().specs_for("rotate", 1)[0]
        a, b = spec.run(), spec.run()
        assert a == b
        assert isinstance(a, MultiClientResult)

    def test_side_record_carries_the_whole_population(self):
        spec = small_experiment().specs_for("static", 1)[0]
        result = spec.run()
        side = pickle.loads(pickle.dumps(spec.encode_side(result)))
        assert (side.policy, side.replicate) == (result.policy, spec.trial)
        assert side.server_bytes == result.server_bytes
        assert list(side.client_finished_at) == [o.finished_at for o in result.outcomes]
        assert list(side.client_failovers) == [o.metrics.failovers for o in result.outcomes]
        assert list(side.client_sides) == [encode_side(o) for o in result.outcomes]

    def test_dense_row_through_arena_round_trips(self):
        spec = small_experiment().specs_for("rotate", 1)[0]
        result = spec.run()
        row = population_dense_row(result)
        arena = OutcomeArena.create(1, POPULATION_COLUMNS)
        arena.write_row(0, spec.dense_row(result))
        dense = arena.read_columns()
        for name, _dtype in POPULATION_COLUMNS:
            assert dense[name][0] == row[name], name


class TestPopulationBatch:
    @pytest.fixture(scope="class")
    def specs(self) -> list:
        return small_experiment().specs_for("rotate", 3)

    @pytest.fixture(scope="class")
    def results(self, specs) -> list[MultiClientResult]:
        return [spec.run() for spec in specs]

    @pytest.fixture(scope="class")
    def batch(self, specs) -> PopulationBatch:
        """The batch an in-process collection assembles."""
        collection = SerialEngine().collect(specs)
        return PopulationBatch.from_dense_and_sides(collection.dense, collection.sides)

    def test_columns_match_per_result_rows(self, results, batch):
        assert len(batch) == 3
        for i, result in enumerate(results):
            row = population_dense_row(result)
            for name, _dtype in POPULATION_COLUMNS:
                assert getattr(batch, name)[i] == row[name], name

    def test_client_csr_layout(self, results, batch):
        expected: list[float] = []
        for i, result in enumerate(results):
            delays = result.startup_delays()
            start, end = batch.client_offsets[i], batch.client_offsets[i + 1]
            assert batch.client_startup[start:end].tolist() == delays
            expected.extend(delays)
        assert batch.startup_delays().tolist() == expected

    def test_assembly_paths_agree_bitwise(self, results, batch):
        assert population_batch_from_results(results).column_mismatches(batch) == []

    def test_column_mismatches_flags_diverged_column(self, results, batch):
        other = population_batch_from_results(results)
        assert batch.column_mismatches(other) == []
        other.load_imbalance[0] += 1.0
        assert batch.column_mismatches(other) == ["load_imbalance"]

    def test_empty_batch(self):
        batch = PopulationBatch.from_dense_and_sides(
            {name: np.empty(0, dtype=dtype) for name, dtype in POPULATION_COLUMNS}, []
        )
        assert len(batch) == 0
        assert batch.client_offsets.tolist() == [0]

    def test_dense_row_of_empty_population_is_nan(self):
        result = MultiClientResult(policy="x")
        row = population_dense_row(result)
        assert np.isnan(row["mean_startup"]) and np.isnan(row["p95_startup"])
        assert row["completed"] == 0 and row["total_server_bytes"] == 0


class TestPopulationResult:
    def test_policy_aliases_label(self):
        campaign = PopulationCampaign().add(small_experiment().specs_for("rotate", 1))
        result = campaign.run(SerialEngine())["rotate"]
        assert result.policy == "rotate"
        assert len(result) == 1


class TestPopulationCampaignDeterminism:
    """Serial / process-shm: the same bits per policy."""

    POLICIES = ("static", "rotate")

    def campaign(self) -> PopulationCampaign:
        """Every policy over the same two seeded replicates."""
        experiment = small_experiment()
        campaign = PopulationCampaign()
        for policy in self.POLICIES:
            campaign.add(experiment.specs_for(policy, 2))
        return campaign

    @pytest.fixture(scope="class")
    def serial(self) -> dict[str, PopulationResult]:
        return self.campaign().run(SerialEngine())

    @pytest.fixture(scope="class")
    def specs(self) -> list[PopulationSpec]:
        return [spec for batch in self.campaign()._batches for spec in batch]

    @pytest.fixture(scope="class")
    def reference(self, specs) -> list[MultiClientResult]:
        return [spec.run() for spec in specs]

    @pytest.mark.parametrize("make_engine", BACKENDS)
    def test_matches_serial(self, serial, specs, reference, make_engine):
        got = self.campaign().run(make_engine())
        assert list(got) == list(self.POLICIES)
        for policy in self.POLICIES:
            assert got[policy].batch.column_mismatches(serial[policy].batch) == []
            assert got[policy].startup_delays() == serial[policy].startup_delays()
        # The side records the engine collects are the specs' own
        # encoding of the populations a serial run produces.
        assert_collected(collect_trials(make_engine(), specs), specs, reference)

    def test_interleaves_policies(self):
        campaign = self.campaign()
        assert len(campaign) == 4
        assert campaign.labels == list(self.POLICIES)


class TestLoadImbalanceEdgeCases:
    """The max/mean ratio under degenerate server-byte maps."""

    def test_idle_servers_count_toward_imbalance(self):
        # An unused replica is exactly the imbalance the selection
        # policy should prevent: 2 servers, one starved -> max/mean 2.
        result = MultiClientResult(policy="x", server_bytes={"a": 100, "b": 0})
        assert result.load_imbalance == pytest.approx(2.0)

    def test_all_zero_bytes_is_zero(self):
        result = MultiClientResult(policy="x", server_bytes={"a": 0, "b": 0})
        assert result.load_imbalance == 0.0

    def test_no_servers_is_zero(self):
        assert MultiClientResult(policy="x").load_imbalance == 0.0

    def test_single_server_is_perfectly_even(self):
        result = MultiClientResult(policy="x", server_bytes={"only": 512})
        assert result.load_imbalance == 1.0

    def test_even_split_is_one(self):
        result = MultiClientResult(
            policy="x", server_bytes={"a": 300, "b": 300, "c": 300}
        )
        assert result.load_imbalance == 1.0


class TestX6Shape:
    """A fast x6-shaped population pass stays in tier-1."""

    def test_x6_population_smoke(self):
        result = study_result("x6", "serial", replicates=1, clients=6)
        assert result.experiment_id == "x6"
        raw = result.raw
        # Static selection starves replicas; rotation spreads the load.
        assert raw["static"]["imbalance_mean"] > 2.0
        assert raw["rotate"]["imbalance_mean"] < raw["static"]["imbalance_mean"]
        for policy in raw:
            assert raw[policy]["completed"] == raw[policy]["sessions"], policy
        assert "EXP-X6" in result.rendered
