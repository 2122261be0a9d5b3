"""Extensions beyond the paper's evaluation — its §7 future-work list.

* :mod:`repro.ext.energy` — interface energy accounting ("our scheduler
  currently does not take into account energy constraints when
  leveraging multiple interfaces" [17]);
* :mod:`repro.ext.adaptive` — DASH-style bitrate adaptation integrated
  with multi-source multi-path fetching ("exploring how rate adaption
  can be integrated with MSPlayer");
* :mod:`repro.ext.multi_client` — many MSPlayer clients sharing one CDN
  deployment, for server-selection-policy studies (the load-balancing
  concern behind §2's source-diversity argument);
* :mod:`repro.ext.population` — the one population runner, and
  population campaigns: whole multi-client populations as parallel
  work units (policy × seed-replicate), collected as dense rows and
  side records into per-policy columnar batches.
"""

from .energy import EnergyModel, EnergyReport, LTE_ENERGY, WIFI_ENERGY
from .adaptive import (
    AdaptiveOutcome,
    AdaptiveSimDriver,
    BitrateController,
    BufferBasedController,
    FixedBitrateController,
    ThroughputController,
)
from .multi_client import MultiClientExperiment
from .population import (
    MultiClientResult,
    PopulationBatch,
    PopulationCampaign,
    PopulationResult,
    PopulationSpec,
)

__all__ = [
    "PopulationBatch",
    "PopulationCampaign",
    "PopulationResult",
    "PopulationSpec",
    "EnergyModel",
    "EnergyReport",
    "WIFI_ENERGY",
    "LTE_ENERGY",
    "BitrateController",
    "FixedBitrateController",
    "BufferBasedController",
    "ThroughputController",
    "AdaptiveSimDriver",
    "AdaptiveOutcome",
    "MultiClientExperiment",
    "MultiClientResult",
]
