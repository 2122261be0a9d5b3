"""``python -m perfbench`` — run the benchmark.

Without ``--trace`` it measures every selected workload end to end and
then makes the traced run for the per-layer numbers, prints both as
tables and writes a run record under ``perfbench/results/``.  With
``--trace 0|1`` (the form the benchmark driver uses, one ``--workload``
at a time) it does only that half and ends with the one JSON line of the
contract in ``BENCHMARK.json``.

This process never imports the program: the measurement is made by one
fresh ``python -m perfbench.round`` interpreter, which sets up once and
spends all of ``--seconds`` on timed repetitions.  Two more interpreters
only set up, so that the reported ``setup_s`` is a median of three.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

from .round import RESULTS_DIR, ROOT, SCRUBBED

#: Interpreters that set up per end-to-end measurement (the first of them
#: measures); the benchmark contract asks for a median ``setup_s``.
SETUPS = 3

#: Benchmark seed when none is given.
DEFAULT_SEED = 2014

#: Wall-clock cap on one round; the driver allows 180 s for a whole run.
ROUND_TIMEOUT_S = 120.0


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result (a round crashed)."""


def contract() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _arenas() -> set[str]:
    return set(glob.glob("/dev/shm/repro-arena-*"))


def spawn_round(workload: str, seed: int, seconds: float, scratch: str, *flags: str) -> dict:
    """Run one round to completion and parse its last output line."""
    environment = {key: value for key, value in os.environ.items() if key not in SCRUBBED}
    # The program's archive transport writes to the default temp dir;
    # keep that inside the checkout too.
    environment["TMPDIR"] = scratch
    command = [
        sys.executable,
        "-m",
        "perfbench.round",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        repr(seconds),
        *flags,
    ]
    try:
        finished = subprocess.run(
            command,
            cwd=ROOT,
            env=environment,
            stdout=subprocess.PIPE,
            text=True,
            timeout=ROUND_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload}: round exceeded {ROUND_TIMEOUT_S:.0f} s") from exc
    if finished.returncode != 0 or not finished.stdout.strip():
        raise BenchmarkError(f"{workload}: round exited with code {finished.returncode}")
    return json.loads(finished.stdout.strip().splitlines()[-1])


def _summary(samples: list[float]) -> dict[str, Any]:
    """Median, quartiles, count and the raw samples of one metric."""
    if len(samples) > 1:
        q1, _median, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {
        "median": statistics.median(samples),
        "q1": q1,
        "q3": q3,
        "n": len(samples),
        "samples": samples,
    }


def measure(workload: str, args: argparse.Namespace, scratch: str) -> dict[str, Any]:
    """The end-to-end half: one round of timed repetitions."""
    switches = (("--smoke", args.smoke), ("--corrupt-one", args.corrupt_one))
    flags = [flag for flag, on in switches if on]
    arenas_before = _arenas()
    payload = spawn_round(workload, args.seed, args.seconds, scratch, *flags)
    setups = [payload["setup_s"]] + [
        spawn_round(workload, args.seed, args.seconds, scratch, "--setup-only", *flags)["setup_s"]
        for _ in range(0 if args.smoke else SETUPS - 1)
    ]
    reps = payload["reps"]
    samples = {
        "setup_s": setups,
        "wall_s": [rep["wall_s"] for rep in reps],
        "cpu_s": [rep["cpu_s"] for rep in reps],
        "sessions_per_s": [rep["sessions"] / rep["wall_s"] for rep in reps],
        "peak_rss_mb": [payload["peak_rss_mb"]],
        "archive_bytes": [float(rep["archive_bytes"]) for rep in reps],
    }
    digests = sorted({rep["digest"] for rep in reps})
    references = payload["references"]
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    problems = []
    if len(digests) != 1:
        problems.append(f"result digest differs between repetitions: {digests}")
    for path, digest in references.items():
        if digest not in digests:
            problems.append(f"digest differs from the {path} run ({digest})")
    if len(set(samples["archive_bytes"])) != 1:
        problems.append("archive size differs between repetitions")
    leaked = _arenas() - arenas_before
    if leaked:
        problems.append(f"leaked shared-memory segments: {sorted(leaked)}")
    if problems:
        # A wrong digest means no cell of the run can be trusted.
        failed = attempted
    elif failed:
        problems.append(f"{failed} of {attempted} operations failed")
    return {
        "end_to_end": {name: _summary(values) for name, values in samples.items()},
        "failed_share": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "digest": digests[0],
        "references": references,
        "quarantined": max(rep.get("quarantined", 0) for rep in reps),
        "problems": problems,
        "size": payload["size"],
        "environment": payload["environment"],
    }


def trace(workload: str, args: argparse.Namespace, scratch: str) -> dict[str, Any]:
    """The per-layer half: one round with the tracer on."""
    flags = ["--trace", "1"] + (["--smoke"] if args.smoke else [])
    arenas_before = _arenas()
    payload = spawn_round(workload, args.seed, args.seconds, scratch, *flags)
    problems = []
    if payload["failed"]:
        problems.append(f"{payload['failed']} of {payload['attempted']} operations failed")
    if len(set(payload["digests"].values())) != 1:
        problems.append(f"traced, untraced and reloaded digests differ: {payload['digests']}")
    shares = [value for name, value in payload["per_layer"].items() if name.endswith(".self_share")]
    if abs(sum(shares) - 1.0) > 0.01:
        problems.append(f"self shares sum to {sum(shares):.4f}, not 1")
    leaked = _arenas() - arenas_before
    if leaked:
        problems.append(f"leaked shared-memory segments: {sorted(leaked)}")
    return {
        "per_layer": payload["per_layer"],
        "attempted": payload["attempted"],
        "failed": payload["attempted"] if problems else 0,
        "digest": payload["digests"]["traced"],
        "sampler_counts": payload["sampler_counts"],
        "problems": problems,
        "size": payload["size"],
        "environment": payload["environment"],
    }


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def contract_line(half: dict[str, Any], declared: list[dict[str, Any]]) -> str:
    """The one JSON object the driver reads: exactly the declared
    metrics, each with its declared unit."""
    if "end_to_end" in half:
        values = {name: summary["median"] for name, summary in half["end_to_end"].items()}
    else:
        values = half["per_layer"]
    missing = [metric["name"] for metric in declared if metric["name"] not in values]
    if missing:
        raise BenchmarkError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    return json.dumps(
        {
            "correct": not half["problems"],
            "attempted": half["attempted"],
            "failed": half["failed"],
            "metrics": {
                metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
                for metric in declared
            },
        }
    )


def print_report(name: str, result: dict[str, Any], declared: dict[str, Any]) -> None:
    units = {
        metric["name"]: metric["unit"]
        for metric in declared["end_to_end"] + declared["per_layer"]
    }
    measured = result.get("measure")
    if measured:
        reps = measured["end_to_end"]["wall_s"]["n"]
        print(f"\n== {name}  (sizes {measured['size']}, {reps} timed repetitions) ==")
        print(f"  {'metric':<16} {'median':>14} {'q1':>14} {'q3':>14}  unit   n")
        for metric, summary in measured["end_to_end"].items():
            print(
                f"  {metric:<16} {summary['median']:>14.6g} {summary['q1']:>14.6g} "
                f"{summary['q3']:>14.6g}  {units.get(metric, ''):<6} {summary['n']}"
            )
        print(
            f"  failed_share {measured['failed_share']:.6g} "
            f"({measured['failed']} of {measured['attempted']} operations)"
        )
        if reps < 10:
            print("  (medians and quartiles only: this few samples support no higher percentile)")
        same = ", ".join(f"= {path} run" for path in measured["references"]) or "no other path"
        print(f"  digest {measured['digest']}  identical across repetitions; {same}")
        if measured["quarantined"]:
            print(f"  cache entries quarantined and recomputed: {measured['quarantined']}")
        for problem in measured["problems"]:
            print(f"  INCORRECT: {problem}")
    traced = result.get("trace")
    if traced:
        print(f"\n-- {name}: per-layer metrics of the traced run --")
        for metric, value in sorted(traced["per_layer"].items()):
            print(f"  {metric:<40} {value:>16.6g}  {units.get(metric, '')}")
        for problem in traced["problems"]:
            print(f"  INCORRECT: {problem}")


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "nogit"
    found = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return found.stdout.strip() if found.returncode == 0 else "nogit"


def write_record(args: argparse.Namespace, results: dict[str, dict[str, Any]]) -> Path:
    """``run-<commit>-<n>.json`` plus one line of ``trajectory.jsonl``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    commit = _commit()
    halves = [half for result in results.values() for half in result.values()]
    record = {
        "schema": "perfbench/1",
        "commit": commit,
        "unix_time": int(time.time()),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        **(halves[0]["environment"] if halves else {}),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "workloads": results,
    }
    taken = [int(path.stem.rsplit("-", 1)[1]) for path in RESULTS_DIR.glob(f"run-{commit}-*.json")]
    path = RESULTS_DIR / f"run-{commit}-{max(taken, default=0) + 1}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    line = {key: value for key, value in record.items() if key != "workloads"}
    line["workloads"] = {
        name: {
            "digest": (result.get("measure") or result.get("trace"))["digest"],
            "end_to_end": {
                metric: summary["median"]
                for metric, summary in result.get("measure", {}).get("end_to_end", {}).items()
            },
            "per_layer": result.get("trace", {}).get("per_layer", {}),
        }
        for name, result in results.items()
    }
    with open(RESULTS_DIR / "trajectory.jsonl", "a") as trajectory:
        trajectory.write(json.dumps(line, sort_keys=True) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    declared = contract()
    names = [workload["name"] for workload in declared["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__)
    parser.add_argument("--workload", action="append", choices=names, help="repeatable")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(declared["run_seconds"]))
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), help="driver form: only this half, one JSON line"
    )
    parser.add_argument("--no-trace", action="store_true", help="skip the traced run")
    parser.add_argument(
        "--smoke", action="store_true", help="one short repetition per workload, no traced run"
    )
    parser.add_argument(
        "--corrupt-one",
        action="store_true",
        help="service_warm: truncate one cached entry after the fill (quarantine demo)",
    )
    args = parser.parse_args(argv)
    selected = args.workload or names
    if args.trace is not None and len(selected) != 1:
        parser.error("--trace needs exactly one --workload")

    # A terminated benchmark must still stop its round and remove its
    # scratch directory: turn SIGTERM into an exit that unwinds.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    RESULTS_DIR.mkdir(exist_ok=True)
    results: dict[str, dict[str, Any]] = {}
    try:
        with tempfile.TemporaryDirectory(prefix="scratch-", dir=RESULTS_DIR) as scratch:
            for name in selected:
                result = results.setdefault(name, {})
                if args.trace != 1:
                    result["measure"] = measure(name, args, scratch)
                if args.trace == 1 or (args.trace is None and not args.no_trace and not args.smoke):
                    result["trace"] = trace(name, args, scratch)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    record = write_record(args, results)
    halves = [half for result in results.values() for half in result.values()]
    correct = not any(half["problems"] for half in halves)
    if args.trace is None:
        for name, result in results.items():
            print_report(name, result, declared)
        print(f"\nrun record: {record.relative_to(ROOT)}")
        print(
            json.dumps(
                {
                    "correct": correct,
                    "attempted": sum(half["attempted"] for half in halves),
                    "failed": sum(half["failed"] for half in halves),
                }
            )
        )
    else:
        for half in halves:
            for problem in half["problems"]:
                print(f"perfbench: INCORRECT: {problem}", file=sys.stderr)
        key = "per_layer" if args.trace else "end_to_end"
        print(contract_line(halves[0], declared[key]))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
