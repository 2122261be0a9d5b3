"""One round of one workload, in a fresh interpreter.

``python -m perfbench`` never imports the program; it spawns this module,
so that set-up (``import numpy``, ``import repro``, warm-up repetition,
pool fork, server start, cache pre-fill) is paid and timed here.  A
round sets up, then runs timed repetitions until ``--seconds`` are spent
(``--trace 0``), or makes one untraced and one traced repetition and
runs the probes (``--trace 1``), or stops there (``--setup-only``: the
extra samples behind the median ``setup_s``).  The last line of standard
output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import shutil
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any

#: Set-up time runs from here: the interpreter's own start and the
#: standard-library imports above (~50 ms, the same on every commit) are
#: not counted.
STARTED = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Timed repetitions a measurement makes at least, however long they take.
MIN_REPETITIONS = 5

#: Settings the program reads from its environment; scrubbed so that the
#: program's own defaults are what is measured.
SCRUBBED = ("REPRO_JOBS", "REPRO_IPC", "REPRO_KERNEL", "REPRO_CACHE", "REPRO_TRIALS")


def _peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus the largest live child's peak."""
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = 0
    for child in multiprocessing.active_children():
        try:
            status = Path(f"/proc/{child.pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                child_kb = max(child_kb, int(line.split()[1]))
    return (own_kb + child_kb) / 1024.0


def _environment() -> dict[str, Any]:
    import numpy

    from repro.net.calendar import compiled_core, resolve_kernel
    from repro.sim.shm import resolve_ipc

    return {
        "numpy": numpy.__version__,
        "default_kernel": resolve_kernel(),
        "default_ipc": resolve_ipc(),
        "compiled_core_built": compiled_core() is not None,
    }


def timed_repetition(
    workload: Any,
    args: argparse.Namespace,
    size: dict,
    out: Path,
    tracer: Any = None,
    run: Any = None,
    sampler: Any = None,
) -> tuple[dict, list]:
    """Prepare, run one repetition under the clocks, read the counts,
    release.  Returns the repetition's record and its (study, result)
    pairs; ``tracer``/``run``/``sampler`` are the traced run's hooks."""
    from perfbench.trace import OFF
    from perfbench.workloads import repetition, summarize

    out.mkdir()
    workload.prepare(out)
    try:
        cpu_before = time.process_time()
        start = time.perf_counter()
        with sampler or nullcontext():
            done = repetition(workload, args.seed, size, out, tracer or OFF, run)
        wall_s = time.perf_counter() - start
        cpu_s = time.process_time() - cpu_before
        counts = workload.counts()
    finally:
        workload.release()
    return {"wall_s": wall_s, "cpu_s": cpu_s, **summarize(done, out), **counts}, done


def timed_round(workload: Any, args: argparse.Namespace, size: dict, scratch: Path) -> dict:
    """Timed repetitions until ``--seconds`` are spent, then the
    cross-path reference runs (untimed)."""
    reps: list[dict] = []
    began = time.perf_counter()
    while True:
        out = scratch / f"rep-{len(reps)}"
        reps.append(timed_repetition(workload, args, size, out)[0])
        shutil.rmtree(out)
        # Stop at the repetition count that brings the time spent
        # closest to --seconds.
        spent = time.perf_counter() - began
        enough = len(reps) >= MIN_REPETITIONS and spent + spent / len(reps) / 2.0 > args.seconds
        if args.smoke or enough:
            break
    peak_rss_mb = _peak_rss_mb()
    return {
        "reps": reps,
        "peak_rss_mb": peak_rss_mb,
        "references": workload.references(args.seed, size),
    }


def traced_round(workload: Any, args: argparse.Namespace, size: dict, scratch: Path) -> dict:
    """One untraced and one traced repetition, then the probes."""
    from perfbench import probes
    from perfbench.trace import LAYERS, Sampler, Tracer, TracingEngine, counting_environments
    from perfbench.workloads import ServiceCold, replay_study, result_digest
    from repro.sim.execution import resolve_engine
    from repro.sim.shm import collect_trials
    from repro.study import StudyResult

    local = not isinstance(workload, ServiceCold)
    tracer = Tracer(workload.name)
    sampler = Sampler()

    # The untraced side of the overhead ratio runs the same path the
    # traced one replays: serial for the local workloads.
    serial_run = (lambda study: study.run(jobs="serial")) if local else None
    untraced, _done = timed_repetition(workload, args, size, scratch / "untraced", run=serial_run)
    untraced_wall = untraced["wall_s"]

    traced_out = scratch / "traced"
    with counting_environments() as environments:
        engine = TracingEngine(tracer, environments)
        workload.instrument(tracer, engine)
        replay = (lambda study: replay_study(study, engine, tracer)) if local else None
        traced, traced_done = timed_repetition(
            workload, args, size, traced_out, tracer, replay, sampler
        )
    traced_wall = traced["wall_s"]
    results = [result for _study, result in traced_done if result is not None]
    with tracer.span("study.archive.load"):
        loaded = [StudyResult.load(path) for path in sorted(traced_out.glob("*.json"))]

    digests = {
        "untraced": untraced["digest"],
        "traced": traced["digest"],
        "loaded": result_digest(loaded),
    }
    studies = workload.studies(args.seed, size)
    cells = sum(len(study) for study in studies)
    metrics: dict[str, float] = {}

    # -- sampler: where the busy thread-time of the traced repetition went
    shares = sampler.shares()
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = shares[layer]
    samples = sum(sampler.counts.values())
    busy_samples = sum(sampler.counts[(layer, "busy")] for layer in LAYERS)
    busy_s = traced_wall * busy_samples / max(1, sampler.ticks)
    metrics["trace.samples"] = float(samples)
    metrics["trace.sample_hz"] = sampler.ticks / traced_wall
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall

    # -- spans and counts of the traced repetition
    metrics["net.kernel.events"] = float(engine.events)
    metrics["net.kernel.ns_per_event"] = (
        shares["net.kernel"] * busy_s / engine.events * 1e9 if engine.events else 0.0
    )
    metrics["sim.scenario.builds"] = float(len(tracer.named("sim.scenario.build")))
    metrics["sim.scenario.build_s"] = tracer.total("sim.scenario.build")
    metrics["sim.driver.sessions"] = float(engine.sessions)
    metrics["sim.driver.run_s"] = tracer.total("sim.driver.run")
    metrics["scenarios.plan_s"] = probes.scenario_plan(engine.specs)
    metrics["analysis.render_s"] = tracer.total("analysis.render")
    metrics["study.archive.save_s"] = tracer.total("study.archive.save")
    metrics["study.archive.load_s"] = tracer.total("study.archive.load")
    metrics["study.archive.bytes"] = float(traced["archive_bytes"])
    metrics["sim.execution.units"] = float(len(engine.specs))
    serial_s = parallel_s = tracer.total("sim.execution.collect")
    jobs = 1
    if workload.jobs != "serial":
        # Attribution came from the serial replay; the engine's own
        # numbers come from the same specs, untraced, on both engines.
        jobs = int(workload.jobs)
        start = time.perf_counter()
        collect_trials(resolve_engine("serial"), engine.specs)
        serial_s = time.perf_counter() - start
        start = time.perf_counter()
        collect_trials(resolve_engine(jobs), engine.specs)
        parallel_s = time.perf_counter() - start
    units = max(1, len(engine.specs))
    metrics["sim.execution.collect_s"] = parallel_s
    metrics["sim.execution.parallel_efficiency"] = (
        serial_s / (jobs * parallel_s) if parallel_s else 0.0
    )
    metrics["sim.execution.dispatch_us_per_unit"] = (
        max(0.0, parallel_s - serial_s / jobs) / units * 1e6
    )

    # -- the service path: requests, waits, per-cell overhead
    endpoint_spans = [span for span in tracer.spans if span["name"].startswith("serve.")]
    metrics["serve.httpd.requests"] = float(len(endpoint_spans))
    engine_wait = 0.0
    for run_span in tracer.named("study.run"):
        calls = [span for span in endpoint_spans if span["parent"] == run_span["id"]]
        submits = [span for span in calls if span["name"] == "serve.engine.submit"]
        polls = [span for span in calls if span["name"] == "serve.engine.status"]
        if submits and polls:
            engine_wait += max(span["end"] for span in polls) - submits[0]["end"]
    worker_busy = 0.0
    leased_at = None
    for span in sorted(endpoint_spans, key=lambda span: span["start"]):
        if span["name"] == "serve.worker.lease" and span["attrs"]["hit"]:
            leased_at = span["start"]
        elif span["name"] == "serve.worker.complete" and leased_at is not None:
            worker_busy += span["end"] - leased_at
            leased_at = None
    metrics["serve.engine.wait_share"] = engine_wait / traced_wall
    metrics["serve.worker.wait_share"] = 0.0 if local else 1.0 - worker_busy / traced_wall
    if local:
        metrics["serve.overhead_ms_per_cell"] = 0.0
    else:
        start = time.perf_counter()
        serial = studies[0].run(jobs="serial")
        serial_wall = (time.perf_counter() - start) * len(studies)
        digests["serial"] = result_digest([serial] * len(studies))
        metrics["serve.overhead_ms_per_cell"] = (untraced_wall - serial_wall) / cells * 1e3
    cache_infos = [result.cache_info for result in results if result.cache_info is not None]
    metrics["study.cache.hits"] = float(sum(info.hits for info in cache_infos))
    metrics["study.cache.misses"] = float(sum(info.misses for info in cache_infos))
    metrics["study.cache.quarantined"] = float(traced.get("quarantined", 0))
    metrics["serve.broker.requeues"] = float(traced.get("requeues", 0))
    metrics["serve.broker.failed_cells"] = float(traced.get("failed_cells", 0))

    # -- probes: each layer alone
    metrics.update(probes.fixed())
    metrics.update(probes.broker(scratch))
    metrics.update(probes.collection(engine.outcomes))
    metrics.update(probes.cache(scratch, results))
    metrics.update(probes.registry(studies))

    RESULTS_DIR.mkdir(exist_ok=True)
    tracer.write(RESULTS_DIR / f"trace-{workload.name}.jsonl")
    return {
        "per_layer": metrics,
        "digests": digests,
        "attempted": traced["attempted"] + untraced["attempted"],
        "failed": traced["failed"] + untraced["failed"],
        "sampler_counts": {
            f"{layer}/{state}": count for (layer, state), count in sorted(sampler.counts.items())
        },
    }


def _pool_start_s(jobs: int) -> float:
    """Seconds the first parallel collection pays for forking the pool:
    four short trials collected twice, first minus second."""
    from repro.core.config import PlayerConfig
    from repro.sim.execution import resolve_engine
    from repro.sim.profiles import testbed_profile
    from repro.sim.runner import TrialRunner
    from repro.sim.shm import collect_trials

    runner = TrialRunner(testbed_profile, trials=4)
    specs = runner.specs_for("pool-start", runner.msplayer(PlayerConfig()))
    walls = []
    for _ in range(2):
        start = time.perf_counter()
        collect_trials(resolve_engine(jobs), specs)
        walls.append(time.perf_counter() - start)
    return max(0.0, walls[0] - walls[1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.round", description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--corrupt-one", action="store_true")
    args = parser.parse_args(argv)

    for name in SCRUBBED:
        os.environ.pop(name, None)
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    if args.corrupt_one:
        workload.corrupt_one = True
    size = workload.smoke if args.smoke else workload.full
    # Measured before anything else can fork the pool.
    pool_start_s = 0.0
    if args.trace and workload.jobs != "serial":
        pool_start_s = _pool_start_s(int(workload.jobs))
    with tempfile.TemporaryDirectory(prefix="round-") as tmp:
        scratch = Path(tmp)
        try:
            workload.open(scratch, args.seed, size)
            setup_s = time.perf_counter() - STARTED
            if args.setup_only:
                payload = {}
            elif args.trace:
                payload = traced_round(workload, args, size, scratch)
                payload["per_layer"]["sim.execution.pool_start_s"] = pool_start_s
            else:
                payload = timed_round(workload, args, size, scratch)
        finally:
            workload.close()
    payload["setup_s"] = setup_s
    payload["size"] = size
    payload["environment"] = _environment()
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
