#!/usr/bin/env python
"""City-scale scenario populations with SLO reporting (repro.scenarios).

Runs a small x8 city-diurnal population — mixed VOD/live/adaptive
clients arriving along a compressed diurnal curve against one shared
CDN — then an x9 flash crowd with server brownouts and a crash, and
prints the per-policy SLO panels (start-up tail, rebuffer ratio,
failover rate, load imbalance).  Finally composes a custom scenario
from the declarative ingredients directly: a lunchtime flash crowd over
a Zipf-skewed catalog while a video server browns out under it.

Paper-scale defaults are 200 clients x 2 replicates (run
``repro experiment x8 --jobs auto`` for that); this example stays
example-sized.

Run:  python examples/city_scenarios.py [clients]
"""

from __future__ import annotations

import sys

from repro.scenarios import (
    ArrivalSpec,
    ChurnSpec,
    DiurnalCurve,
    FlashCrowd,
    MixSpec,
    ScenarioExperiment,
    population_slo,
)
from repro.sim.campaign import Campaign
from repro.study import Study


def main() -> None:
    clients = int(sys.argv[1]) if len(sys.argv) > 1 else 8

    print(f"EXP-X8: city diurnal, {clients} clients per policy...\n")
    x8 = Study("x8", replicates=1, clients=clients, catalog=8).run().only().result
    print(x8.rendered)

    print(f"\nEXP-X9: flash crowd + brownouts, {clients} clients per policy...\n")
    x9 = Study("x9", replicates=1, clients=clients, catalog=8).run().only().result
    print(x9.rendered)

    print("\ncustom scenario: lunchtime burst over a browning-out server...")
    experiment = ScenarioExperiment(
        arrivals=ArrivalSpec(
            horizon_s=20.0,
            curve=DiurnalCurve(amplitude=1.0, period_s=20.0),
            flash_crowds=(FlashCrowd(at_s=6.0, clients=max(clients // 2, 1)),),
        ),
        mix=MixSpec(catalog_size=8, zipf_s=1.4),
        # One sampled brownout window placed under the burst.
        churn=ChurnSpec(brownouts=1, window_start_s=6.0, window_end_s=14.0),
        client_count=clients,
        seed=2026,
    )
    # Population specs name their own batch, so a plain Campaign returns
    # the policy's PopulationBatch.
    population = Campaign().add(experiment.specs_for("rotate", 1)).run()
    slo = population_slo(population["rotate"].batch)
    print(
        f"  rotate: p95 start-up {slo.p95_startup_s:.2f}s, "
        f"rebuffer ratio {slo.rebuffer_ratio:.4f}, "
        f"completion {slo.completed}/{slo.sessions}"
    )

    print("\nSLO panel keys:", ", ".join(sorted(slo.as_dict())))


if __name__ == "__main__":
    main()
