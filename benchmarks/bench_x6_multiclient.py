"""EXP-X6 — server-selection policies under replicated client populations.

The operational side of §2's source-diversity argument: with many
MSPlayer clients arriving together, YouTube's server selection decides
whether replicas share the load.  Compares the three policies in
:mod:`repro.cdn.selection` on load imbalance (max/mean bytes across
video servers) and client start-up delay, with overloadable servers.

Since the population-campaign layer, the workload is flash-crowd sized:
``replicates`` independently seeded populations per policy (each whole
population one parallel work unit), infeasible serially at paper scale.
The bench times the same campaign serial vs ``--jobs auto``, asserts
the two are byte-identical, and archives the wall clocks + speedup in
``benchmarks/results/BENCH_x6_population.json`` next to the rendered
panel in ``benchmarks/results/x6.txt``.  The ≥2× speedup floor only
applies with ≥4 CPUs and a full (non ``--smoke``) run — shared CI
runners are too noisy to gate ratios on, but they still measure and
archive.
"""

import json
import os
import time

from conftest import RESULTS_DIR, trials

from repro.study import Study

RESULT_FILE = RESULTS_DIR / "BENCH_x6_population.json"


def run_comparison(clients: int, replicates: int, jobs):
    result = Study("x6", replicates=replicates, clients=clients).run(jobs=jobs).only().result
    return result.rendered, result.raw


def test_x6_selection_policies(benchmark, record_result, smoke):
    clients = 6 if smoke else 12
    # REPRO_TRIALS scales the replicate count like it scales trial
    # counts elsewhere; the paper-fidelity default is 20 (§5.2).
    replicates = 2 if smoke else trials(20)

    serial_start = time.perf_counter()
    rendered, raw = run_comparison(clients, replicates, "serial")
    serial_s = time.perf_counter() - serial_start

    auto_start = time.perf_counter()
    auto_rendered, auto_raw = benchmark.pedantic(
        run_comparison, args=(clients, replicates, "auto"), rounds=1, iterations=1
    )
    auto_s = time.perf_counter() - auto_start
    record_result("x6", rendered)

    # Determinism before speed: population sharding changes nothing.
    assert auto_rendered == rendered
    assert auto_raw == raw

    speedup = serial_s / auto_s
    record = {
        "schema": "x6_population/v1",
        "cpu_count": os.cpu_count(),
        "smoke": smoke,
        "clients": clients,
        "replicates": replicates,
        "policies": 3,
        "serial_s": round(serial_s, 4),
        "auto_s": round(auto_s, 4),
        "auto_speedup": round(speedup, 3),
        "populations_per_sec_serial": round(3 * replicates / serial_s, 2),
        "populations_per_sec_auto": round(3 * replicates / auto_s, 2),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    RESULT_FILE.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    # Static selection starves the backup replicas.
    assert raw["static"]["imbalance_mean"] > 2.0
    # Rotation spreads the population across replicas.
    assert raw["rotate"]["imbalance_mean"] < raw["static"]["imbalance_mean"] * 0.6
    # Better balance translates into better (or equal) start-up under
    # overloadable servers.
    assert (
        raw["rotate"]["median_startup_s"] <= raw["static"]["median_startup_s"] * 1.05
    )
    # Everybody finishes pre-buffering under every policy.
    for policy in raw:
        assert raw[policy]["completed"] == raw[policy]["sessions"], policy

    # Whole-population sharding is embarrassingly parallel, so the
    # campaign should scale with cores; single-core runners and smoke
    # passes measure and archive without gating.
    cpus = os.cpu_count() or 1
    if not smoke and cpus >= 4:
        assert speedup >= 2.0, (
            f"expected >=2x population-campaign speedup on {cpus} CPUs, "
            f"got {speedup:.2f}x"
        )
