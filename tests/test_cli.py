"""Command-line interface (generated from the study registry)."""

import json
import pathlib

import pytest

from repro.cli import build_parser, main
from repro.study import experiment_ids, get_experiment

#: Knobs that exist on SOME experiment — each must be rejected on every
#: id whose schema does not declare it (satellite: schema-driven
#: validation closes the silently-accepted-knob paths).
_KNOWN_FLAGS = {
    "trials": ("--trials", "3"),
    "replicates": ("--replicates", "2"),
    "clients": ("--clients", "2"),
    "samples": ("--samples", "50"),
    "thetas": ("--thetas", "2.0"),
    "policies": ("--policies", "static"),
}

_ALL_IDS = [
    "fig1", "fig2", "fig3", "fig4", "fig5", "table1",
    "x1", "x2", "x3", "x6", "x8", "x9",
]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_play_defaults(self):
        args = build_parser().parse_args(["play"])
        assert args.profile == "testbed"
        assert args.scheduler == "harmonic"
        assert args.stop == "prebuffer"

    def test_experiment_id_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_every_registered_experiment_is_parseable(self):
        for key in experiment_ids():
            args = build_parser().parse_args(["experiment", key])
            assert args.id == key

    def test_every_schema_param_has_a_generated_flag(self):
        for key in experiment_ids():
            definition = get_experiment(key)
            argv = ["experiment", key]
            for param in definition.schema:
                value = (
                    ",".join(map(str, param.default))
                    if param.many
                    else str(param.default)
                )
                argv += [param.flag, value]
            # Unparseable flags would SystemExit here.
            args = build_parser().parse_args(argv)
            assert args.id == key

    def test_population_knobs_parse(self):
        args = build_parser().parse_args(
            ["experiment", "x6", "--replicates", "4", "--clients", "20"]
        )
        assert args.replicates == 4 and args.clients == 20

    def test_common_flags_exist_on_every_id(self):
        for key in experiment_ids():
            args = build_parser().parse_args(
                ["experiment", key, "--jobs", "2", "--set", "seed=1", "--save", "out"]
            )
            assert args.jobs == "2"
            assert args.set == ["seed=1"] and args.save == "out"

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--kernel", "calendar"),
            ("--ipc", "pickle"),
            pytest.param("--fastapi", None, id="--fastapi"),
        ],
    )
    def test_retired_backend_flags_are_rejected(self, flag, value, capsys):
        """One event kernel, one collection path and one HTTP front end:
        nothing to select."""
        argv = ["serve", flag] if value is None else ["experiment", "fig2", flag, value]
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert "unrecognized arguments" in capsys.readouterr().err


class TestSchemaRejectionWall:
    """Every id rejects every knob its schema does not declare."""

    @pytest.mark.parametrize("experiment_id", _ALL_IDS)
    def test_unknown_knobs_exit_2(self, experiment_id, capsys):
        schema = get_experiment(experiment_id).schema
        rejected = 0
        for name, (flag, value) in _KNOWN_FLAGS.items():
            if name in schema:
                continue
            code = main(["experiment", experiment_id, flag, value])
            err = capsys.readouterr().err
            assert code == 2, (experiment_id, flag)
            assert flag in err
            rejected += 1
        assert rejected > 0  # every id has at least one foreign knob

    @pytest.mark.parametrize("experiment_id", _ALL_IDS)
    def test_unknown_set_key_exits_2(self, experiment_id, capsys):
        code = main(["experiment", experiment_id, "--set", "bogus_knob=1"])
        assert code == 2
        assert "bogus_knob" in capsys.readouterr().err

    def test_registry_is_exactly_the_known_experiments(self):
        assert experiment_ids() == _ALL_IDS


class TestHelpSnapshots:
    """`--help` is generated from the schema — pin the load-bearing
    content (every schema flag plus the common study flags) per id."""

    @pytest.mark.parametrize("experiment_id", _ALL_IDS)
    def test_help_lists_every_schema_flag(self, experiment_id, capsys):
        code = main(["experiment", experiment_id, "--help"])
        assert code == 0
        help_text = capsys.readouterr().out
        for param in get_experiment(experiment_id).schema:
            assert param.flag in help_text, (experiment_id, param.flag)
        for common in ("--jobs", "--set", "--grid", "--save"):
            assert common in help_text

    def test_experiment_overview_lists_ids(self, capsys):
        code = main(["experiment", "--help"])
        assert code == 0
        out = capsys.readouterr().out
        for experiment_id in experiment_ids():
            assert experiment_id in out


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "fig2" in output and "testbed" in output
        # Registry metadata is rendered: kinds and param lines.
        assert "[population]" in output and "trials: int" in output

    def test_play_quick(self, capsys):
        code = main(
            ["play", "--profile", "testbed", "--seed", "2", "--prebuffer", "20",
             "--duration", "90", "--stop", "prebuffer"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "start-up delay" in output
        assert "prebuffer-complete" in output

    def test_play_single_path(self, capsys):
        code = main(
            ["play", "--paths", "1", "--prebuffer", "20", "--duration", "90"]
        )
        assert code == 0

    def test_play_ratio_with_chunk(self, capsys):
        code = main(
            ["play", "--scheduler", "ratio", "--chunk", "1MB", "--prebuffer", "20",
             "--duration", "90"]
        )
        assert code == 0

    def test_experiment_x3(self, capsys):
        assert main(["experiment", "x3"]) == 0
        assert "harmonic" in capsys.readouterr().out

    def test_experiment_x6_population(self, capsys):
        code = main(
            ["experiment", "x6", "--replicates", "1", "--clients", "3"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "EXP-X6" in output and "rotate" in output

    def test_population_knobs_rejected_elsewhere(self, capsys):
        code = main(["experiment", "fig2", "--replicates", "2"])
        assert code == 2
        assert "--replicates" in capsys.readouterr().err

    def test_trials_knob_rejected_on_population_experiment(self, capsys):
        code = main(["experiment", "x6", "--trials", "50"])
        assert code == 2
        assert "--trials" in capsys.readouterr().err

    def test_invalid_population_counts_fail_cleanly(self, capsys):
        # A one-line error + exit 2, not a ConfigError traceback.
        for flag in ("--replicates", "--clients"):
            code = main(["experiment", "x6", flag, "0"])
            assert code == 2
            assert ">= 1" in capsys.readouterr().err

    def test_experiment_fig2_few_trials(self, capsys):
        assert main(["experiment", "fig2", "--trials", "3"]) == 0
        assert "MSPlayer" in capsys.readouterr().out

    def test_set_override_equivalent_to_flag(self, capsys):
        assert main(["experiment", "fig2", "--trials", "2", "--seed", "77"]) == 0
        by_flag = capsys.readouterr().out
        assert main(["experiment", "fig2", "--trials", "2", "--set", "seed=77"]) == 0
        by_set = capsys.readouterr().out
        assert by_flag == by_set

    def test_grid_runs_every_cell(self, capsys):
        code = main(
            ["experiment", "fig2", "--trials", "2", "--grid", "seed=2014,2015"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("Fig. 2") == 2
        assert "seed=2014" in out and "seed=2015" in out

    def test_bad_set_syntax_exits_2(self, capsys):
        code = main(["experiment", "fig2", "--set", "trials"])
        assert code == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_save_archives_study_result(self, tmp_path, capsys):
        base = tmp_path / "fig1-run"
        code = main(
            ["experiment", "fig1", "--thetas", "2.0", "--save", str(base)]
        )
        assert code == 0
        manifest = json.loads(pathlib.Path(f"{base}.json").read_text())
        assert manifest["experiment"] == "fig1"
        assert pathlib.Path(f"{base}.npz").exists()

    def test_explicit_jobs_wins_over_broken_repro_jobs_env(self, capsys, monkeypatch):
        # Engine resolution is lazy: a stale REPRO_JOBS must not poison
        # runs whose backend was chosen explicitly...
        monkeypatch.setenv("REPRO_JOBS", "bogus")
        assert main(["experiment", "fig2", "--trials", "1", "--jobs", "1"]) == 0
        capsys.readouterr()
        # ...but still fails fast when the env IS the selector.
        code = main(["experiment", "fig2", "--trials", "1"])
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_adaptive_quick(self, capsys):
        code = main(
            ["adaptive", "--controller", "fixed", "--itag", "18",
             "--profile", "testbed", "--duration", "40"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "mean bitrate" in output


class TestConfigErrorsExit2:
    """A rejected value is one ``error:`` line and exit code 2 on every
    command — never a traceback, and never a run on a NaN."""

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["play", "--prebuffer", "-5"], id="play-negative-prebuffer"),
            pytest.param(["play", "--chunk", "0KB"], id="play-zero-chunk"),
            pytest.param(["adaptive", "--duration", "-1"], id="adaptive-negative-duration"),
            pytest.param(["play", "--prebuffer", "nan"], id="play-nan-prebuffer"),
            pytest.param(["play", "--duration", "nan"], id="play-nan-duration"),
            pytest.param(["play", "--duration", "inf"], id="play-inf-duration"),
            pytest.param(["adaptive", "--duration", "nan"], id="adaptive-nan-duration"),
            pytest.param(
                ["experiment", "fig4", "--trials", "1", "--prebuffers", "nan"],
                id="experiment-nan-param",
            ),
            pytest.param(
                ["experiment", "fig4", "--trials", "1", "--prebuffers", "inf"],
                id="experiment-inf-param",
            ),
            pytest.param(["experiment", "fig1", "--rtt-wifi", "nan"], id="experiment-nan-rtt"),
        ],
    )
    def test_rejected_value_exits_2(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err


class TestGridUsageErrors:
    """`--grid` typos die as exit-code-2 usage errors, never run short."""

    def test_empty_item_exits_2(self, capsys):
        code = main(
            ["experiment", "fig2", "--trials", "1", "--grid", "seed=1,,2"]
        )
        assert code == 2
        assert "empty value" in capsys.readouterr().err

    def test_trailing_comma_exits_2(self, capsys):
        code = main(
            ["experiment", "fig2", "--trials", "1", "--grid", "seed=1,2,"]
        )
        assert code == 2
        assert "empty value" in capsys.readouterr().err

    def test_empty_semicolon_cell_exits_2(self, capsys):
        code = main(
            ["experiment", "fig4", "--trials", "1",
             "--grid", "prebuffers=20;;40"]
        )
        assert code == 2
        assert "empty value" in capsys.readouterr().err

    def test_all_empty_value_exits_2(self, capsys):
        code = main(
            ["experiment", "fig2", "--trials", "1", "--grid", "seed="]
        )
        assert code == 2
        assert "at least one value" in capsys.readouterr().err

    def test_duplicate_axis_exits_2(self, capsys):
        code = main(
            ["experiment", "fig2", "--trials", "1",
             "--grid", "seed=1", "--grid", "seed=2"]
        )
        assert code == 2
        assert "given twice" in capsys.readouterr().err

    def test_choice_value_containing_equals_exits_2_cleanly(self, capsys):
        # The value is split on the FIRST '=', so 'schedulers=harmonic=2'
        # aims the bogus choice 'harmonic=2' at the schema — a one-line
        # usage error, not a traceback or a silently truncated value.
        code = main(
            ["experiment", "fig3", "--trials", "1",
             "--grid", "schedulers=harmonic=2"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "harmonic=2" in err and err.startswith("error:")


class TestCacheCLI:
    def _sweep(self, tmp_path, *extra):
        return main(
            ["experiment", "fig2", "--trials", "2",
             "--grid", "seed=2014,2015", "--cache", str(tmp_path / "cache"),
             *extra]
        )

    def test_cache_flag_reports_and_resume_hits(self, tmp_path, capsys):
        assert self._sweep(tmp_path) == 0
        first = capsys.readouterr()
        assert "2 miss(es)" in first.err
        # --resume is the same flag under its natural name.
        code = main(
            ["experiment", "fig2", "--trials", "2",
             "--grid", "seed=2014,2015", "--resume", str(tmp_path / "cache")]
        )
        assert code == 0
        second = capsys.readouterr()
        assert "0 work units submitted" in second.err
        assert first.out == second.out

    def test_cached_save_is_byte_identical(self, tmp_path, capsys):
        assert self._sweep(tmp_path, "--save", str(tmp_path / "a")) == 0
        assert self._sweep(tmp_path, "--save", str(tmp_path / "b")) == 0
        capsys.readouterr()
        for suffix in (".json", ".npz"):
            first = (tmp_path / "a").with_suffix(suffix).read_bytes()
            second = (tmp_path / "b").with_suffix(suffix).read_bytes()
            assert first == second, suffix

    def test_no_cache_flag_no_summary_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert main(["experiment", "fig2", "--trials", "1"]) == 0
        assert "work units submitted" not in capsys.readouterr().err

    def test_repro_cache_env_is_the_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "cache"))
        assert main(["experiment", "fig2", "--trials", "1"]) == 0
        assert "1 miss(es)" in capsys.readouterr().err
        assert main(["experiment", "fig2", "--trials", "1"]) == 0
        assert "0 work units submitted" in capsys.readouterr().err

    def test_cache_ls_gc_verify(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert self._sweep(tmp_path) == 0
        capsys.readouterr()
        assert main(["cache", "ls", cache_dir]) == 0
        listing = capsys.readouterr().out
        assert "2 entries" in listing and "fig2" in listing
        assert main(["cache", "ls", "--json", cache_dir]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert len(manifest["entries"]) == 2
        assert all(entry["complete"] for entry in manifest["entries"])
        assert main(["cache", "verify", cache_dir]) == 0
        assert "2 ok, 0 bad" in capsys.readouterr().out
        assert main(["cache", "gc", cache_dir]) == 0
        assert "removed 0" in capsys.readouterr().out
        assert main(["cache", "gc", "--all", cache_dir]) == 0
        assert "removed 2" in capsys.readouterr().out
        assert main(["cache", "ls", cache_dir]) == 0
        assert "empty" in capsys.readouterr().out

    def test_cache_verify_flags_corruption(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert self._sweep(tmp_path) == 0
        capsys.readouterr()
        victim = sorted((cache_dir / "entries").glob("*.npz"))[0]
        victim.write_bytes(b"junk")
        assert main(["cache", "verify", str(cache_dir)]) == 1
        captured = capsys.readouterr()
        assert "1 ok, 1 bad" in captured.out
        assert "bad" in captured.err

    def test_cache_without_dir_or_env_exits_2(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        for action in ("ls", "gc", "verify"):
            assert main(["cache", action]) == 2
            assert "no cache directory" in capsys.readouterr().err

    def test_cache_env_supplies_the_dir(self, tmp_path, capsys, monkeypatch):
        assert self._sweep(tmp_path) == 0
        capsys.readouterr()
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "cache"))
        assert main(["cache", "ls"]) == 0
        assert "2 entries" in capsys.readouterr().out


class TestCacheGCBounds:
    """`cache gc --max-bytes/--max-age` and `serve --gc --keep-days`."""

    def _sweep(self, tmp_path):
        return main(
            ["experiment", "fig2", "--trials", "2",
             "--grid", "seed=2014,2015", "--cache", str(tmp_path / "cache")]
        )

    def test_gc_max_bytes_evicts_oldest_first(self, tmp_path, capsys):
        assert self._sweep(tmp_path) == 0
        capsys.readouterr()
        # A budget of one entry's size keeps only the newest entry.
        assert main(["cache", "gc", "--max-bytes", "0", str(tmp_path / "cache")]) == 0
        assert "removed 2" in capsys.readouterr().out
        assert main(["cache", "ls", str(tmp_path / "cache")]) == 0
        assert "empty" in capsys.readouterr().out

    def test_gc_max_bytes_accepts_size_suffixes(self, tmp_path, capsys):
        assert self._sweep(tmp_path) == 0
        capsys.readouterr()
        assert main(["cache", "gc", "--max-bytes", "1GB", str(tmp_path / "cache")]) == 0
        assert "removed 0" in capsys.readouterr().out

    def test_gc_max_age_spares_fresh_entries(self, tmp_path, capsys):
        assert self._sweep(tmp_path) == 0
        capsys.readouterr()
        assert main(["cache", "gc", "--max-age", "30", str(tmp_path / "cache")]) == 0
        assert "removed 0" in capsys.readouterr().out
        assert main(["cache", "gc", "--max-age", "0", str(tmp_path / "cache")]) == 0
        assert "removed 2" in capsys.readouterr().out

    def test_gc_negative_max_age_exits_2(self, tmp_path, capsys):
        assert self._sweep(tmp_path) == 0
        capsys.readouterr()
        code = main(["cache", "gc", "--max-age", "-1", str(tmp_path / "cache")])
        assert code == 2
        assert "max_age" in capsys.readouterr().err

    def test_gc_nan_max_age_exits_2(self, tmp_path, capsys):
        code = main(["cache", "gc", "--max-age", "nan", str(tmp_path / "cache")])
        assert code == 2
        assert "max_age" in capsys.readouterr().err

    def test_gc_unparseable_max_bytes_exits_2(self, tmp_path, capsys):
        assert self._sweep(tmp_path) == 0
        capsys.readouterr()
        code = main(["cache", "gc", "--max-bytes", "lots", str(tmp_path / "cache")])
        assert code == 2

    def test_serve_gc_purges_completed_studies(self, tmp_path, capsys):
        from repro.serve.broker import Broker
        from repro.serve.cells import cell_archive, execute_cell
        from repro.sim.execution import SerialEngine

        db = tmp_path / "queue.sqlite3"
        broker = Broker(db)
        job = broker.submit(
            {"experiment": "fig2", "params": {"trials": 1, "seed": 2014}, "axes": {}}
        )
        lease = broker.lease("w0")
        cell = execute_cell(
            "fig2", {"trials": 1, "seed": 2014}, engine=SerialEngine()
        )
        manifest, npz = cell_archive("fig2", cell)
        broker.complete(
            job["job_id"], 0, manifest, npz,
            lease_id=lease["lease_id"], worker="w0",
        )
        broker.close()
        assert main(["serve", "--db", str(db), "--gc", "--keep-days", "0"]) == 0
        out = capsys.readouterr().out
        assert "purged 1 cell blob(s)" in out
        # Second pass finds nothing left to purge.
        assert main(["serve", "--db", str(db), "--gc", "--keep-days", "0"]) == 0
        assert "purged 0 cell blob(s)" in capsys.readouterr().out

    def test_serve_gc_negative_keep_days_exits_2(self, tmp_path, capsys):
        db = tmp_path / "queue.sqlite3"
        code = main(["serve", "--db", str(db), "--gc", "--keep-days", "-2"])
        assert code == 2
        assert "keep_days" in capsys.readouterr().err

    def test_serve_gc_nan_keep_days_exits_2(self, tmp_path, capsys):
        db = tmp_path / "queue.sqlite3"
        code = main(["serve", "--db", str(db), "--gc", "--keep-days", "nan"])
        assert code == 2
        assert "keep_days" in capsys.readouterr().err

    def test_serve_nan_lease_timeout_exits_2(self, tmp_path, capsys):
        db = tmp_path / "queue.sqlite3"
        code = main(["serve", "--db", str(db), "--gc", "--lease-timeout", "nan"])
        assert code == 2
        assert "lease_timeout" in capsys.readouterr().err
