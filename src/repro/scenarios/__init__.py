"""City-scale declarative workloads over the population machinery.

The paper's experiments replay fixed, hand-picked conditions; this
package opens the workload axis the ROADMAP's north star asks for.  A
*scenario* composes four orthogonal, individually seeded ingredients:

* :mod:`~repro.scenarios.arrivals` — when clients show up (diurnal
  Poisson processes via thinning, flash-crowd bursts);
* :mod:`~repro.scenarios.mix` — who they are (VOD / live / adaptive
  drivers, campus vs mobile access profiles, Zipf catalog skew);
* :mod:`~repro.scenarios.churn` — what breaks underneath them (server
  brownouts and crashes, path degradation windows);
* :mod:`~repro.scenarios.slo` — how the population is judged (p95/p99
  start-up, rebuffer ratio, failover rate, load imbalance), computed
  columnar on :class:`~repro.ext.population.PopulationBatch`.

:mod:`~repro.scenarios.experiment` binds them into a shared-world
population run (one work unit per replicate, same engines and
collection path as every other campaign), and :mod:`~repro.scenarios.experiments`
registers the ``x8``/``x9`` scenario experiments so the Study API,
grid cache, service backend, CLI, and archives come for free.
"""

from __future__ import annotations

from .arrivals import ArrivalSpec, DiurnalCurve, FlashCrowd, thinned_arrival_times
from .churn import ChurnSpec, PathDegradation, ServerBrownout, ServerCrash, schedule_churn
from .experiment import ScenarioExperiment
from .mix import ClientAssignment, ClientClass, MixSpec
from .slo import SLOReport, population_slo

__all__ = [
    "ArrivalSpec",
    "ChurnSpec",
    "ClientAssignment",
    "ClientClass",
    "DiurnalCurve",
    "FlashCrowd",
    "MixSpec",
    "PathDegradation",
    "SLOReport",
    "ScenarioExperiment",
    "ServerBrownout",
    "ServerCrash",
    "population_slo",
    "schedule_churn",
    "thinned_arrival_times",
]
