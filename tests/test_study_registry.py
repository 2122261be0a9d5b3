"""The experiment registry and its typed parameter schemas.

Includes the CI registry-completeness gate: every experiment id must
carry a schema and smoke-run through ``Study`` at tiny scale, and every
id must be referenced by some benchmark file (so bench coverage cannot
drift from ``repro list``).
"""

import pathlib

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.study import (
    ExperimentDef,
    ParamSchema,
    Study,
    experiment_ids,
    get_experiment,
    register,
)
from repro.study.params import Param
from repro.units import parse_size

ALL_IDS = [
    "fig1", "fig2", "fig3", "fig4", "fig5", "table1",
    "x1", "x2", "x3", "x6", "x8", "x9",
]


def _set_flags(params: dict) -> list[str]:
    """``--set key=value`` arguments spelling ``params`` for the CLI."""
    argv = []
    for name, value in params.items():
        text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
        argv += ["--set", f"{name}={text}"]
    return argv


class TestParam:
    def test_scalar_coercion_from_strings(self):
        param = Param("trials", int, 20, minimum=1)
        assert param.coerce("7") == 7
        assert param.coerce(None) == 20
        with pytest.raises(ConfigError, match="trials"):
            param.coerce("seven")
        with pytest.raises(ConfigError, match=">= 1"):
            param.coerce(0)

    def test_float_accepts_ints(self):
        param = Param("rtt", float, 0.05)
        assert param.coerce(1) == 1.0
        assert isinstance(param.coerce(1), float)

    def test_bool_is_not_an_int(self):
        param = Param("trials", int, 20)
        with pytest.raises(ConfigError):
            param.coerce(True)

    def test_many_splits_commas_and_returns_tuples(self):
        param = Param("prebuffers", float, (20.0,), many=True)
        assert param.coerce("20,40") == (20.0, 40.0)
        assert param.coerce([20, 40]) == (20.0, 40.0)
        with pytest.raises(ConfigError, match="empty"):
            param.coerce([])

    def test_parse_hook_applies_per_element(self):
        param = Param("chunks", int, (65536,), many=True, parse=parse_size)
        assert param.coerce("64KB,1MB") == (65536, 1048576)

    def test_choices_enforced_per_element(self):
        param = Param(
            "schedulers", str, ("harmonic",), many=True,
            choices=("harmonic", "ewma"),
        )
        with pytest.raises(ConfigError, match="bogus"):
            param.coerce("harmonic,bogus")

    def test_flag_name_dashes(self):
        assert Param("rtt_wifi", float, 0.05).flag == "--rtt-wifi"


class TestParamSchema:
    def test_unknown_name_lists_valid_ones(self):
        schema = ParamSchema((Param("trials", int, 20), Param("seed", int, 1)))
        with pytest.raises(ConfigError, match="trials, seed"):
            schema.resolve({"clients": 3})

    def test_resolve_merges_defaults_and_overrides(self):
        schema = ParamSchema((Param("trials", int, 20), Param("seed", int, 1)))
        assert schema.resolve({"seed": "9"}) == {"trials": 20, "seed": 9}

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            ParamSchema((Param("a", int, 1), Param("a", int, 2)))


class TestRegistry:
    def test_all_known_experiments_registered(self):
        assert experiment_ids() == ALL_IDS

    def test_unknown_id_raises_with_known_ids(self):
        with pytest.raises(ConfigError, match="fig1"):
            get_experiment("fig99")

    def test_conflicting_reregistration_rejected(self):
        clone = ExperimentDef(
            experiment_id="fig1",
            title="imposter",
            kind="single",
            schema=ParamSchema(()),
            build=lambda params: None,
        )
        with pytest.raises(ConfigError, match="already registered"):
            register(clone)

    def test_reregistering_same_object_is_idempotent(self):
        definition = get_experiment("fig1")
        assert register(definition) is definition

    def test_invalid_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            ExperimentDef(
                experiment_id="zz",
                title="",
                kind="banana",
                schema=ParamSchema(()),
                build=lambda params: None,
            )

    def test_smoke_params_validated_against_schema(self):
        with pytest.raises(ConfigError, match="trials"):
            ExperimentDef(
                experiment_id="zz",
                title="",
                kind="single",
                schema=ParamSchema(()),
                build=lambda params: None,
                smoke_params={"trials": 1},
            )


class TestRegistryCompletenessGate:
    """The CI gate: schema + tiny-scale Study smoke for every id, and
    bench coverage that cannot drift from the registry."""

    @pytest.mark.parametrize("experiment_id", ALL_IDS)
    def test_smoke_runs_via_study_and_matches_the_cli(self, experiment_id, capsys):
        definition = get_experiment(experiment_id)
        assert len(definition.schema) > 0
        assert "seed" in definition.schema  # plumbed uniformly
        via_study = Study(experiment_id, **definition.smoke_params).run()
        cell = via_study.only()
        assert cell.result.experiment_id == experiment_id
        assert cell.result.rendered.strip()
        assert cell.columns  # dense batch columns extracted per label
        # Cross-door equality: `repro experiment <id>` with the same
        # params prints exactly what the Study rendered.
        capsys.readouterr()
        code = main(["experiment", experiment_id, *_set_flags(definition.smoke_params)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert captured.out == via_study.rendered + "\n"

    def test_every_registry_id_is_exercised_by_a_benchmark(self):
        bench_dir = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
        sources = "\n".join(
            path.read_text() for path in sorted(bench_dir.glob("bench_*.py"))
        )
        for experiment_id in experiment_ids():
            assert f'"{experiment_id}"' in sources, (
                f"no benchmark references experiment {experiment_id!r}; "
                "bench coverage drifted from the registry"
            )
