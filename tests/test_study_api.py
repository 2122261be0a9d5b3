"""The ``Study`` facade: validation, grids, merged submission.

The acceptance bar: grid cells are byte-identical to running each cell
as its own study (the merged submission only changes scheduling), on
the serial and process backends alike.
"""

import math

import pytest

from repro.errors import ConfigError
from repro.ext.population import PopulationCampaign
from repro.sim.campaign import Campaign, run_together
from repro.sim.execution import SerialEngine
from repro.study import Study, get_experiment


class TestStudyConstruction:
    def test_bad_param_dies_at_construction(self):
        with pytest.raises(ConfigError, match="trials"):
            Study("fig2", trials=0)

    # 10**400 is an integer no float can hold: float() overflows.
    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, pytest.param(10**400, id="10**400")]
    )
    def test_non_finite_float_dies_at_construction(self, value):
        with pytest.raises(ConfigError, match="rtt_wifi.*finite"):
            Study("fig1", rtt_wifi=value)
        with pytest.raises(ConfigError, match="prebuffers.*finite"):
            Study("fig4", prebuffers=(20.0, value))

    def test_unknown_param_dies_at_construction(self):
        with pytest.raises(ConfigError, match="clients"):
            Study("fig2", clients=5)

    def test_accepts_definition_object(self):
        study = Study(get_experiment("x3"), samples=60)
        assert study.experiment_id == "x3"
        assert study.params["samples"] == 60

    def test_string_values_coerced_through_schema(self):
        study = Study("fig3", chunks="64KB,1MB", trials="2")
        assert study.params["chunks"] == (65536, 1048576)
        assert study.params["trials"] == 2


class TestGrid:
    def test_grid_axis_must_be_a_schema_param(self):
        with pytest.raises(ConfigError, match="clients"):
            Study("fig2").grid(clients=[1, 2])

    def test_grid_axis_cannot_be_empty(self):
        with pytest.raises(ConfigError, match="empty"):
            Study("fig2").grid(seed=[])

    def test_cells_product_order_last_axis_fastest(self):
        grid = Study("fig2", trials=1).grid(seed=[1, 2], trials=[3, 4])
        assert grid.cells() == [
            {"seed": 1, "trials": 3},
            {"seed": 1, "trials": 4},
            {"seed": 2, "trials": 3},
            {"seed": 2, "trials": 4},
        ]
        assert len(grid) == 4

    def test_grid_does_not_mutate_the_base_study(self):
        base = Study("fig2", trials=1)
        grid = base.grid(seed=[1, 2])
        assert len(base) == 1 and len(grid) == 2

    def test_grid_values_coerced(self):
        grid = Study("fig3", trials=1).grid(chunks=["64KB", "1MB,16KB"])
        assert grid.cells() == [
            {"chunks": (65536,)},
            {"chunks": (1048576, 16384)},
        ]


class TestGridExecution:
    @pytest.fixture(scope="class")
    def merged(self):
        return (
            Study("fig2", trials=2)
            .grid(seed=[2014, 2015], trials=[2, 3])
            .run()
        )

    def test_grid_over_two_params_runs_every_cell(self, merged):
        assert len(merged.cells) == 4
        assert merged.axes == {"seed": [2014, 2015], "trials": [2, 3]}

    def test_cells_byte_identical_to_solo_runs(self, merged):
        import numpy as np

        for cell in merged.cells:
            solo_cell = Study("fig2", **cell.params).run().only()
            assert cell.result.rendered == solo_cell.result.rendered
            assert cell.result.raw == solo_cell.result.raw
            # Same-cell dense columns are bit-identical (NaN == NaN).
            for label, columns in cell.columns.items():
                for name, column in columns.items():
                    other = solo_cell.columns[label][name]
                    assert column.dtype == other.dtype, (label, name)
                    assert np.array_equal(
                        column, other, equal_nan=column.dtype.kind == "f"
                    ), (label, name)

    def test_process_backend_matches_serial(self, merged):
        parallel = (
            Study("fig2", trials=2)
            .grid(seed=[2014, 2015], trials=[2, 3])
            .run(jobs=2)
        )
        assert parallel.rendered == merged.rendered
        assert merged.column_mismatches(parallel) == []

    def test_cell_lookup_by_coordinates(self, merged):
        cell = merged.cell(seed=2015, trials=3)
        assert cell.params["seed"] == 2015 and cell.params["trials"] == 3
        with pytest.raises(ConfigError, match="axes"):
            merged.cell(prebuffers=20)

    def test_only_rejects_grids(self, merged):
        with pytest.raises(ConfigError, match="4 cells"):
            merged.only()

    def test_rendered_labels_grid_cells(self, merged):
        assert merged.rendered.count("=== fig2 [") == 4


class TestRunTogether:
    def test_mixed_campaign_kinds_rejected(self):
        trial_campaign = get_experiment("fig2").build(
            get_experiment("fig2").schema.resolve({"trials": 1})
        ).campaign
        population_campaign = get_experiment("x6").build(
            get_experiment("x6").schema.resolve({"replicates": 1, "clients": 2})
        ).campaign
        assert isinstance(trial_campaign, Campaign)
        assert isinstance(population_campaign, PopulationCampaign)
        with pytest.raises(ConfigError, match="same-kind"):
            run_together([trial_campaign, population_campaign], SerialEngine())

    def test_empty_input_is_empty_output(self):
        assert run_together([], SerialEngine()) == []

    def test_single_campaign_equals_campaign_run(self):
        params = get_experiment("x3").schema.resolve({"samples": 60})
        solo = get_experiment("x3").build(params).campaign.run()
        together = run_together(
            [get_experiment("x3").build(params).campaign], SerialEngine()
        )[0]
        assert sorted(solo) == sorted(together)
        for label in solo:
            assert solo[label].mean_error == together[label].mean_error


class TestRunTogetherSkip:
    """The cache-aware partial-submission path (``skip=``)."""

    def _campaigns(self, count=2):
        definition = get_experiment("fig2")
        return [
            definition.build(
                definition.schema.resolve({"trials": 2, "seed": 2014 + offset})
            ).campaign
            for offset in range(count)
        ]

    def test_skipped_slots_are_none_others_unchanged(self):
        campaigns = self._campaigns(3)
        full = run_together(self._campaigns(3), SerialEngine())
        partial = run_together(campaigns, SerialEngine(), skip=[1])
        assert partial[1] is None
        for index in (0, 2):
            assert sorted(partial[index]) == sorted(full[index])
            for label in full[index]:
                assert (
                    partial[index][label].startup_delays()
                    == full[index][label].startup_delays()
                )

    def test_fully_skipped_call_never_touches_the_engine(self):
        class ExplodingEngine(SerialEngine):
            def collect(self, specs):
                raise AssertionError("engine must not be consulted")

        results = run_together(
            self._campaigns(2), ExplodingEngine(), skip=[0, 1]
        )
        assert results == [None, None]

    def test_fully_skipped_call_accepts_engine_none(self):
        assert run_together(self._campaigns(2), None, skip=[0, 1]) == [None, None]

    def test_skip_index_out_of_range_rejected(self):
        with pytest.raises(ConfigError, match="out of range"):
            run_together(self._campaigns(2), SerialEngine(), skip=[2])
        with pytest.raises(ConfigError, match="out of range"):
            run_together(self._campaigns(2), SerialEngine(), skip=[-1])


class TestUniformJobsPlumbing:
    """Satellite: fig1 and x3 honor the jobs knob like everyone else."""

    @pytest.mark.parametrize("experiment_id", ["fig1", "x3"])
    def test_process_backend_byte_identical(self, experiment_id):
        definition = get_experiment(experiment_id)
        serial = Study(experiment_id, **definition.smoke_params).run()
        pooled = Study(experiment_id, **definition.smoke_params).run(jobs=2)
        assert serial.only().result.rendered == pooled.only().result.rendered
        assert serial.column_mismatches(pooled) == []

    def test_x3_fans_out_one_unit_per_estimator(self):
        plan = get_experiment("x3").build(
            get_experiment("x3").schema.resolve({"samples": 60})
        )
        assert len(plan.campaign) == 4  # one EstimatorTraceSpec each
        assert plan.campaign.labels == ["harmonic", "ewma", "window", "last"]

    def test_fig1_fans_out_one_unit_per_theta(self):
        plan = get_experiment("fig1").build(
            get_experiment("fig1").schema.resolve({})
        )
        assert len(plan.campaign) == 4
