"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``play`` — run one MSPlayer session on a simulated profile and print
  its QoE metrics;
* ``experiment`` — regenerate a paper figure/table by id (fig1…fig5,
  table1, x1…x3, x6) and print the panel;
* ``adaptive`` — run the DASH-extension player with a chosen controller;
* ``list`` — show available experiments (from the registry) and
  profiles;
* ``cache`` — inspect/maintain a study cell cache directory
  (``ls`` / ``gc`` / ``verify``);
* ``serve`` — run the study-service broker (sqlite queue + HTTP front
  end; :mod:`repro.serve`);
* ``worker`` — run a pull worker against a broker URL;
* ``lint`` — run the AST-based determinism/invariant analyzer
  (:mod:`repro.lint`) over source paths.

The ``experiment`` surface is *generated from the study registry*
(:mod:`repro.study`): each experiment id is a sub-command whose flags
are derived from its :class:`~repro.study.params.ParamSchema` — so
``repro experiment fig3 --help`` shows exactly fig3's knobs, a knob
aimed at the wrong experiment is an argparse error, and a new
experiment needs zero CLI edits.  Every id additionally accepts:

* ``--jobs`` — execution backend (uniform across ids; fig1/x3 fan out
  like everything else);
* ``--set key=value`` — generic schema-validated override (same
  strings the flags take: ``--set chunks=64KB,1MB``);
* ``--grid key=v1,v2`` — sweep a param across study cells; all cells
  run as one merged pool submission (``;`` separates tuple-valued
  cells: ``--grid prebuffers='20;40,60'``);
* ``--save PATH`` — archive the :class:`~repro.study.StudyResult` to
  ``PATH.json`` + ``PATH.npz``;
* ``--cache DIR`` / ``--resume DIR`` — consult a content-addressed
  cell cache (:mod:`repro.study.cache`): cached cells are rebuilt from
  ``DIR`` bit-identically and only the misses run (``REPRO_CACHE`` env
  supplies a default);
* ``--backend service --broker URL`` — ship the study to a broker and
  let a worker fleet execute it (:mod:`repro.serve`); the returned
  archive is byte-identical to a local run.

``cache {ls,gc,verify}`` maintain such a cache directory from the
command line (list entries as a table or JSON manifest, collect stale
entries, fully re-validate every entry).

``main`` returns process exit codes (argparse rejections included)
instead of raising ``SystemExit``, so in-process callers get ``2`` for
a bad flag the same way a shell would.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from .core.config import PlayerConfig
from .errors import ConfigError
from .lint.cli import add_lint_parser, command_lint
from .ext.adaptive import (
    AdaptiveSimDriver,
    BufferBasedController,
    FixedBitrateController,
    ThroughputController,
)
from .sim.driver import MSPlayerDriver
from .sim.profiles import PROFILES
from .sim.scenario import Scenario, ScenarioConfig
from .study import Study, experiment_ids, get_experiment
from .study.params import UNSET, Param
from .units import parse_size

CONTROLLERS = {
    "fixed": lambda itag: FixedBitrateController(itag),
    "buffer": lambda itag: BufferBasedController(),
    "throughput": lambda itag: ThroughputController(),
}

#: argparse dests reserved by the generated experiment sub-commands; a
#: schema param may not shadow them (enforced at parser build time).
_RESERVED_DESTS = frozenset(
    {
        "command",
        "id",
        "jobs",
        "save",
        "set",
        "grid",
        "cache",
        "backend",
        "broker",
    }
)


def _add_param_flag(parser: argparse.ArgumentParser, param: Param) -> None:
    """One schema param → one generated flag.

    Values stay strings for ``many``/parsed params (the schema splits
    and converts); scalar int/float params get argparse-level typing so
    ``--trials x`` fails in the parser with the usual message.
    """
    kwargs: dict = {
        "dest": param.name,
        "default": None,  # None = "not provided"; resolution is schema-side
        "help": f"{param.help or param.name} (default: {param.default!r})",
        "metavar": param.name.upper(),
    }
    if param.many or param.parse is not None or param.type is bool:
        kwargs["type"] = str
        if param.many:
            kwargs["metavar"] = f"{param.name.upper()}[,...]"
    else:
        kwargs["type"] = param.type
    parser.add_argument(param.flag, **kwargs)


def _experiment_parser(sub: argparse._SubParsersAction) -> None:
    experiment = sub.add_parser(
        "experiment",
        help="regenerate a paper figure/table (sub-command per id)",
        description="Experiment ids are generated from the study registry; "
        "`repro experiment <id> --help` lists that id's typed knobs.",
    )
    by_id = experiment.add_subparsers(dest="id", required=True, metavar="ID")
    for experiment_id in experiment_ids():
        definition = get_experiment(experiment_id)
        parser = by_id.add_parser(
            experiment_id,
            help=f"[{definition.kind}] {definition.title}",
            description=definition.description or definition.title,
        )
        parser.set_defaults(id=experiment_id)
        for param in definition.schema:
            if param.name in _RESERVED_DESTS:
                raise ConfigError(
                    f"experiment {experiment_id!r}: param {param.name!r} "
                    "shadows a reserved CLI dest"
                )
            _add_param_flag(parser, param)
        parser.add_argument(
            "--jobs",
            default=None,
            metavar="N",
            help="execution backend for the study's merged campaign "
            "submission: an integer worker count, 'auto' (one per CPU), "
            "or 'serial' (default; REPRO_JOBS env overrides).  Results "
            "are byte-identical whatever the backend",
        )
        parser.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="generic schema-validated param override "
            "(e.g. --set chunks=64KB,1MB); repeatable",
        )
        parser.add_argument(
            "--grid",
            action="append",
            default=[],
            metavar="KEY=V1,V2",
            help="sweep a param across study cells, all cells one merged "
            "pool submission; ';' separates tuple-valued cells; repeatable",
        )
        parser.add_argument(
            "--save",
            default=None,
            metavar="PATH",
            help="archive the StudyResult to PATH.json + PATH.npz",
        )
        parser.add_argument(
            "--cache",
            "--resume",
            default=None,
            metavar="DIR",
            help="content-addressed cell cache: cells already in DIR are "
            "rebuilt bit-identically and only the misses run, so a "
            "repeated run submits zero work units and a widened --grid "
            "submits only the new cells (--resume is the same flag under "
            "its natural name; REPRO_CACHE env supplies a default)",
        )
        parser.add_argument(
            "--backend",
            choices=("local", "service"),
            default="local",
            help="'local' executes in this process (--jobs semantics); "
            "'service' ships the study to a broker (repro serve) and a "
            "pull-worker fleet executes it — results byte-identical "
            "either way",
        )
        parser.add_argument(
            "--broker",
            default=None,
            metavar="URL",
            help="broker URL for --backend service "
            "(e.g. http://127.0.0.1:8742; REPRO_BROKER env supplies a "
            "default)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MSPlayer reproduction (CoNEXT 2014) — simulate, measure, reproduce.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    play = sub.add_parser("play", help="run one MSPlayer session")
    play.add_argument("--profile", choices=sorted(PROFILES), default="testbed")
    play.add_argument("--seed", type=int, default=1)
    play.add_argument(
        "--scheduler", choices=("harmonic", "ewma", "ratio", "last", "window"),
        default="harmonic",
    )
    play.add_argument("--chunk", default="256KB", help="initial chunk size (e.g. 64KB, 1MB)")
    play.add_argument("--prebuffer", type=float, default=40.0, help="seconds")
    play.add_argument("--duration", type=float, default=180.0, help="video length, seconds")
    play.add_argument(
        "--stop", choices=("prebuffer", "cycles", "full"), default="prebuffer"
    )
    play.add_argument("--paths", type=int, choices=(1, 2), default=2)

    _experiment_parser(sub)

    adaptive = sub.add_parser("adaptive", help="run the DASH-extension player (§7)")
    adaptive.add_argument("--controller", choices=sorted(CONTROLLERS), default="throughput")
    adaptive.add_argument("--profile", choices=sorted(PROFILES), default="youtube")
    adaptive.add_argument("--seed", type=int, default=1)
    adaptive.add_argument("--duration", type=float, default=120.0)
    adaptive.add_argument("--itag", type=int, default=22, help="fixed controller's itag")

    sub.add_parser("list", help="list experiments and profiles")

    cache = sub.add_parser(
        "cache",
        help="maintain a study cell cache directory (ls / gc / verify)",
        description="Inspect and maintain a content-addressed study cache "
        "as written by `repro experiment <id> --cache DIR`.  DIR may be "
        "omitted when REPRO_CACHE is set.",
    )
    action = cache.add_subparsers(dest="action", required=True, metavar="ACTION")
    cache_ls = action.add_parser("ls", help="list cache entries")
    cache_ls.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the full machine-readable cache manifest instead of a table",
    )
    cache_gc = action.add_parser(
        "gc",
        help="remove quarantined files, temp leftovers, and stale entries "
        "(other cache/archive versions, outdated code fingerprints)",
    )
    cache_gc.add_argument(
        "--all",
        action="store_true",
        dest="everything",
        help="drop every entry, not just stale ones",
    )
    cache_gc.add_argument(
        "--max-bytes",
        default=None,
        metavar="SIZE",
        help="after the stale sweep, evict valid entries oldest-first "
        "until the cache fits SIZE (accepts 64KB/1MB-style suffixes)",
    )
    cache_gc.add_argument(
        "--max-age",
        type=float,
        default=None,
        metavar="DAYS",
        help="after the stale sweep, evict valid entries created more "
        "than DAYS days ago",
    )
    action.add_parser(
        "verify",
        help="fully load and re-key every entry; exit 1 if any is bad",
    )
    for sub_parser in (cache_ls, cache_gc, action.choices["verify"]):
        sub_parser.add_argument(
            "dir",
            nargs="?",
            default=None,
            metavar="DIR",
            help="cache directory (default: REPRO_CACHE)",
        )

    serve = sub.add_parser(
        "serve",
        help="run the study-service broker (sqlite queue + HTTP front end)",
        description="Accept study submissions over HTTP, expand them into "
        "per-cell work units in a sqlite-backed queue, and hand leases to "
        "pull workers (`repro worker URL`).  With --cache DIR the broker "
        "consults the content-addressed cell cache at submit time, so "
        "resubmitted studies enqueue zero work units.",
    )
    serve.add_argument(
        "--db",
        default="broker.sqlite3",
        metavar="PATH",
        help="sqlite queue file; restarting on the same file resumes "
        "in-flight jobs (default: %(default)s)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8742)
    serve.add_argument(
        "--lease-timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="a leased cell whose worker misses heartbeats for this long "
        "is requeued (default: %(default)s)",
    )
    serve.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        metavar="N",
        help="attempts before a cell is quarantined as poisoned "
        "(default: %(default)s)",
    )
    serve.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="broker-side study cell cache (default: REPRO_CACHE if set)",
    )
    serve.add_argument(
        "--gc",
        action="store_true",
        dest="run_gc",
        help="purge result blobs of completed studies older than "
        "--keep-days from the queue db, then exit (no server is started)",
    )
    serve.add_argument(
        "--keep-days",
        type=float,
        default=7.0,
        metavar="DAYS",
        help="with --gc: completed studies younger than this keep their "
        "result blobs (default: %(default)s)",
    )

    worker = sub.add_parser(
        "worker",
        help="run a pull worker against a broker URL",
        description="Lease cells from a broker, execute them locally, and "
        "stream results back.  Heartbeats keep the lease alive during long "
        "cells; a crashed worker's leases expire and requeue on the broker.",
    )
    worker.add_argument(
        "url",
        nargs="?",
        default=None,
        metavar="URL",
        help="broker URL (default: REPRO_BROKER)",
    )
    worker.add_argument(
        "--jobs",
        default=None,
        metavar="N",
        help="execution backend for each cell, as in `repro experiment "
        "--jobs` (default: REPRO_JOBS or serial)",
    )
    worker.add_argument(
        "--poll",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="how long an idle lease request waits at the broker, which "
        "answers it the moment a cell arrives; also the back-off after a "
        "failed request (default: %(default)s)",
    )
    worker.add_argument(
        "--max-cells",
        type=int,
        default=None,
        metavar="N",
        help="exit after processing N cells (default: run forever)",
    )
    worker.add_argument(
        "--once",
        action="store_true",
        help="drain the queue and exit when it is empty",
    )
    worker.add_argument(
        "--id",
        default=None,
        dest="worker_id",
        metavar="NAME",
        help="worker name shown in broker logs/status "
        "(default: <hostname>-<pid>)",
    )

    add_lint_parser(sub)
    return parser


def _command_play(args: argparse.Namespace) -> int:
    scenario = Scenario(
        PROFILES[args.profile](),
        seed=args.seed,
        config=ScenarioConfig(video_duration_s=args.duration),
    )
    low = min(10.0, args.prebuffer / 4.0)
    config = PlayerConfig(
        scheduler=args.scheduler,
        base_chunk_bytes=parse_size(args.chunk),
        prebuffer_s=args.prebuffer,
        low_watermark_s=low,
        max_paths=args.paths,
    )
    outcome = MSPlayerDriver(scenario, config, stop=args.stop).run()
    print(f"profile={args.profile} seed={args.seed} scheduler={args.scheduler}")
    print(f"stop reason      : {outcome.stop_reason}")
    if outcome.startup_delay is not None:
        print(f"start-up delay   : {outcome.startup_delay:.2f} s")
    for key, value in outcome.metrics.summary().items():
        print(f"{key:24s}: {value}")
    return 0


def _split_assignment(token: str, flag: str) -> tuple[str, str]:
    if "=" not in token:
        raise ConfigError(f"{flag} expects KEY=VALUE, got {token!r}")
    key, value = token.split("=", 1)
    key = key.strip().replace("-", "_")
    if not key:
        raise ConfigError(f"{flag} expects KEY=VALUE, got {token!r}")
    return key, value


def _experiment_inputs(args: argparse.Namespace):
    """Flags + ``--set`` + ``--grid`` → (overrides, grid axes).

    Flag values and ``--set`` strings are *not* converted here — the
    schema is the single validation point (``Study`` resolves them), so
    a bad value dies with the same one-line error whichever door it
    came through.
    """
    definition = get_experiment(args.id)
    overrides: dict = {}
    for param in definition.schema:
        value = getattr(args, param.name)
        if value is None:
            if param.cli_default is not UNSET:
                overrides[param.name] = param.cli_default
        else:
            overrides[param.name] = value
    for token in args.set:
        key, value = _split_assignment(token, "--set")
        overrides[key] = value
    grid: dict[str, list[str]] = {}
    for token in args.grid:
        key, value = _split_assignment(token, "--grid")
        if key in grid:
            raise ConfigError(
                f"--grid {key} given twice; one axis per key (values are "
                "comma- or ';'-separated in a single flag)"
            )
        if not value.strip():
            raise ConfigError(f"--grid {key} needs at least one value")
        separator = ";" if ";" in value else ","
        cells = value.split(separator)
        # Empty items are a usage error, not something to silently drop:
        # `--grid seed=1,,2` asked for three cells and must not quietly
        # run two (the trailing-comma typo is the common case).
        if any(not cell.strip() for cell in cells):
            raise ConfigError(
                f"--grid {key}={value} has an empty value; expected "
                f"KEY=V1{separator}V2"
            )
        grid[key] = cells
    return overrides, grid


def _command_experiment(args: argparse.Namespace) -> int:
    # Validate the backend before anything runs so a typo'd --jobs
    # (or REPRO_JOBS) fails in milliseconds with a one-line error.
    from .sim.execution import resolve_engine

    overrides, grid = _experiment_inputs(args)
    if args.backend == "service":
        if args.cache is not None:
            raise ConfigError(
                "--cache is broker-side under --backend service; start "
                "the broker with `repro serve --cache DIR` instead"
            )
        if args.jobs is not None:
            raise ConfigError(
                "--jobs applies to the local backend; under --backend "
                "service each worker picks its own (`repro worker --jobs N`)"
            )
    elif args.broker is not None:
        raise ConfigError("--broker requires --backend service")
    if args.backend == "service":
        from .serve.engine import ServiceEngine

        engine = ServiceEngine(args.broker)
    else:
        engine = resolve_engine(args.jobs)
    study = Study(args.id, **overrides)
    if grid:
        study = study.grid(**grid)
    result = study.run(engine=engine, cache=args.cache)
    print(result.rendered)
    if result.cache_info is not None:
        info = result.cache_info
        print(
            f"cache: {info.hits} hit(s), {info.misses} miss(es), "
            f"{info.submitted_units} work units submitted",
            file=sys.stderr,
        )
    if args.save:
        json_path, npz_path = result.save(args.save)
        print(
            f"archived study result: {json_path} + {npz_path}", file=sys.stderr
        )
    return 0


def _command_adaptive(args: argparse.Namespace) -> int:
    scenario = Scenario(
        PROFILES[args.profile](),
        seed=args.seed,
        config=ScenarioConfig(video_duration_s=args.duration),
    )
    controller = CONTROLLERS[args.controller](args.itag)
    config = PlayerConfig(prebuffer_s=12.0, low_watermark_s=6.0, rebuffer_fetch_s=8.0)
    outcome = AdaptiveSimDriver(scenario, controller, config, stop="full").run()
    print(f"controller       : {args.controller}")
    print(f"outcome          : {outcome.stop_reason}")
    print(f"mean bitrate     : {outcome.mean_bitrate_bps / 1e6:.2f} Mb/s")
    print(f"bitrate switches : {outcome.switches}")
    print(f"stall time       : {outcome.metrics.total_stall_time:.2f} s")
    print(f"itag history     : {outcome.itag_history}")
    return 0


def _command_list(_args: argparse.Namespace) -> int:
    print("experiments:")
    for experiment_id in experiment_ids():
        definition = get_experiment(experiment_id)
        print(f"  {experiment_id:8s} [{definition.kind}] {definition.title}")
        for param in definition.schema:
            print(f"           {param.describe()}")
    print("profiles:")
    for key in sorted(PROFILES):
        print(f"  {key}")
    return 0


def _command_cache(args: argparse.Namespace) -> int:
    import json as json_module

    from .study.cache import resolve_cache

    cache = resolve_cache(args.dir)
    if cache is None:
        raise ConfigError("no cache directory: pass DIR or set REPRO_CACHE")
    if args.action == "ls":
        if args.as_json:
            print(json_module.dumps(cache.manifest(), indent=2, sort_keys=True))
            return 0
        entries = cache.entries()
        if not entries:
            print(f"cache {cache.root}: empty")
            return 0
        print(f"cache {cache.root}: {len(entries)} entr" + (
            "y" if len(entries) == 1 else "ies"
        ))
        for entry in entries:
            experiment = entry.meta.get("experiment", "?")
            state = "ok" if entry.complete() else "incomplete"
            if "error" in entry.meta and "format" not in entry.meta:
                state = "unreadable meta"
            print(
                f"  {entry.key}  {experiment:8s} "
                f"{entry.size_bytes():>10d} B  {state}"
            )
        return 0
    if args.action == "gc":
        from .units import parse_size

        max_bytes = (
            parse_size(args.max_bytes) if args.max_bytes is not None else None
        )
        removed, freed = cache.gc(
            everything=args.everything,
            max_bytes=max_bytes,
            max_age_days=args.max_age,
        )
        print(f"cache gc: removed {removed} entr" + (
            "y" if removed == 1 else "ies"
        ) + f", freed {freed} bytes")
        return 0
    ok, bad = cache.verify()
    print(f"cache verify: {len(ok)} ok, {len(bad)} bad")
    for key, reason in bad:
        print(f"  bad {key}: {reason}", file=sys.stderr)
    return 1 if bad else 0


def _command_serve(args: argparse.Namespace) -> int:
    from .serve.broker import Broker
    from .study.cache import resolve_cache

    def log(message: str) -> None:
        print(message, file=sys.stderr, flush=True)

    broker = Broker(
        args.db,
        cache=resolve_cache(args.cache),
        lease_timeout=args.lease_timeout,
        max_attempts=args.max_attempts,
        log=log,
    )
    if args.run_gc:
        try:
            stats = broker.gc(keep_days=args.keep_days)
        finally:
            broker.close()
        print(
            f"serve gc: purged {stats['cells']} cell blob(s) across "
            f"{stats['studies']} completed study(ies), freed {stats['bytes']} bytes"
        )
        return 0
    try:
        from .serve.httpd import run_server

        log(f"[serve] broker db {args.db}; listening on {args.host}:{args.port}")
        run_server(broker, args.host, args.port)
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    finally:
        broker.close()
    return 0


def _command_worker(args: argparse.Namespace) -> int:
    from .serve.engine import resolve_broker
    from .serve.worker import run_worker

    def log(message: str) -> None:
        print(message, file=sys.stderr, flush=True)

    try:
        with resolve_broker(args.url) as client:
            processed = run_worker(
                client,
                jobs=args.jobs,
                poll=args.poll,
                max_cells=args.max_cells,
                once=args.once,
                worker_id=args.worker_id,
                log=log,
            )
        log(f"[worker] processed {processed} cell(s)")
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        return 0
    return 0


_HANDLERS = {
    "play": _command_play,
    "experiment": _command_experiment,
    "adaptive": _command_adaptive,
    "list": _command_list,
    "cache": _command_cache,
    "serve": _command_serve,
    "worker": _command_worker,
    "lint": command_lint,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Parse and dispatch; returns an exit code, never raises SystemExit.

    argparse signals rejection (unknown id, a knob aimed at the wrong
    experiment, bad int) by raising ``SystemExit(2)`` after printing to
    stderr; converting that to a return keeps in-process callers —
    tests, notebooks — on the same contract as the shell.  A
    :class:`~repro.errors.ConfigError` out of any command is the same
    rejection after parsing: one ``error:`` line on stderr, exit 2.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
