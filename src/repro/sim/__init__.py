"""Discrete-event simulation driver for MSPlayer and the baselines.

This package is the "testbed" (§5) and the "YouTube service" (§6) of
the paper, as code:

* :mod:`repro.sim.profiles` — calibrated network profiles: the campus
  testbed (stable links), the wide-area YouTube scenario (burstier,
  longer RTTs), and mobility variants with interface outages;
* :mod:`repro.sim.scenario` — builds a complete world from a profile:
  environment, links, interfaces, CDN deployment, DNS, one video;
* :mod:`repro.sim.driver` — runs a :class:`repro.core.PlayerSession`
  against that world, translating its commands into simulated IO;
* :mod:`repro.sim.singlepath` — drives the single-path baseline player
  (Adobe-Flash/HTML5-style) for Figs. 2, 4 and 5;
* :mod:`repro.sim.runner` — repeated-trial seed derivation and spec
  factories (the paper randomizes configuration order over 20
  repetitions; we give each (configuration, trial) an independent
  random substream);
* :mod:`repro.sim.execution` — the trial execution engine: declarative
  picklable trial/driver specs and pluggable serial/process backends,
  so independent trials fan out over a process pool with results
  byte-identical to a serial run;
* :mod:`repro.sim.campaign` — campaign-level scheduling (all of a
  figure's configurations interleaved into one pool submission, no
  per-configuration barrier) and the one demux: each label's rows
  become the batch its spec kind names;
* :mod:`repro.sim.shm` — columnar result collection for every engine:
  each work unit's dense scalars come back as a row (through the pool
  pipe on the process engine) and fill one set of columns; the
  ragged/string remainder travels as side records; the per-trial
  batch (:class:`~repro.sim.shm.OutcomeBatch`) lives beside its
  layout.
"""

from .profiles import (
    InterfaceProfile,
    NetworkProfile,
    mobility_profile,
    testbed_profile,
    youtube_profile,
)
from .scenario import Scenario, ScenarioConfig
from .driver import MSPlayerDriver, SessionOutcome
from .singlepath import SinglePathDriver
from .execution import (
    DriverFactory,
    MPTCPLikeSpec,
    MSPlayerSpec,
    ProcessEngine,
    SerialEngine,
    SessionDriver,
    SinglePathSpec,
    TrialSpec,
    WorkSpec,
    resolve_engine,
)
from .shm import OutcomeArena, OutcomeBatch, SideRecord, TrialCollection, collect_trials
from .campaign import Campaign, TrialResult
from .runner import TrialRunner

__all__ = [
    "OutcomeArena",
    "SideRecord",
    "TrialCollection",
    "collect_trials",
    "DriverFactory",
    "MPTCPLikeSpec",
    "MSPlayerSpec",
    "ProcessEngine",
    "SerialEngine",
    "SessionDriver",
    "SinglePathSpec",
    "TrialSpec",
    "WorkSpec",
    "resolve_engine",
    "InterfaceProfile",
    "NetworkProfile",
    "testbed_profile",
    "youtube_profile",
    "mobility_profile",
    "Scenario",
    "ScenarioConfig",
    "MSPlayerDriver",
    "SessionOutcome",
    "SinglePathDriver",
    "TrialRunner",
    "TrialResult",
    "Campaign",
    "OutcomeBatch",
]
