"""EXP-X8 / EXP-X9 — city-scale scenario populations with SLO gates.

The scenarios package's headline workloads: "x8" arrives along a
compressed diurnal curve with the default city mix (campus VOD, mobile
walk-outs, live edge, adaptive), "x9" drops most of the population as a
flash crowd while the churn timeline browns out and crashes video
servers beneath it.  Both report *population SLOs* (start-up tail,
rebuffer ratio, failover rate, imbalance) per server-selection policy.

The bench times the x8 campaign serial vs ``--jobs auto``, asserts
byte-identity (scenario populations shard like any other work unit),
smokes x9 at the same scale, asserts the SLO-shape claims, and archives
wall clocks + per-policy SLOs in
``benchmarks/results/BENCH_x8_scenarios.json`` next to the rendered
panels in ``x8.txt`` / ``x9.txt``.  Speedup floors only gate full
(non ``--smoke``) runs on ≥4 CPUs.
"""

import json
import os
import time

from conftest import RESULTS_DIR, trials

from repro.study import Study

RESULT_FILE = RESULTS_DIR / "BENCH_x8_scenarios.json"


def run_x8(clients: int, replicates: int, jobs):
    result = Study("x8", replicates=replicates, clients=clients).run(jobs=jobs).only().result
    return result.rendered, result.raw


def test_x8_x9_scenario_slos(benchmark, record_result, smoke):
    clients = 8 if smoke else 120
    replicates = 1 if smoke else trials(2)

    serial_start = time.perf_counter()
    rendered, raw = run_x8(clients, replicates, "serial")
    serial_s = time.perf_counter() - serial_start

    auto_start = time.perf_counter()
    auto_rendered, auto_raw = benchmark.pedantic(
        run_x8, args=(clients, replicates, "auto"), rounds=1, iterations=1
    )
    auto_s = time.perf_counter() - auto_start
    record_result("x8", rendered)

    # Determinism before speed: scenario populations shard cleanly.
    assert auto_rendered == rendered
    assert auto_raw == raw

    # The robustness scenario, same scale, parallel backend.
    x9 = Study("x9", replicates=replicates, clients=clients).run(jobs="auto").only().result
    record_result("x9", x9.rendered)

    speedup = serial_s / auto_s
    record = {
        "schema": "x8_scenarios/v1",
        "cpu_count": os.cpu_count(),
        "smoke": smoke,
        "clients": clients,
        "replicates": replicates,
        "policies": 3,
        "serial_s": round(serial_s, 4),
        "auto_s": round(auto_s, 4),
        "auto_speedup": round(speedup, 3),
        "x8_slos": raw,
        "x9_slos": x9.raw,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    RESULT_FILE.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    for panel in (raw, x9.raw):
        for policy, slo in panel.items():
            # Every population reports a full SLO panel.
            assert slo["sessions"] == clients * replicates, policy
            assert slo["completed"] > 0, policy
            assert slo["p99_startup_s"] >= slo["p95_startup_s"] >= slo["p50_startup_s"]
            assert 0.0 <= slo["rebuffer_ratio"] < 1.0, policy
            assert slo["imbalance_max"] >= slo["imbalance_mean"] >= 1.0, policy

    if not smoke:
        # Under the flash crowd + churn, single-server static selection
        # concentrates load worse than rotation.
        assert (
            x9.raw["static"]["imbalance_mean"]
            > x9.raw["rotate"]["imbalance_mean"]
        )

    cpus = os.cpu_count() or 1
    if not smoke and cpus >= 4:
        assert speedup >= 1.5, (
            f"expected scenario-campaign speedup on {cpus} CPUs, "
            f"got {speedup:.2f}x"
        )
