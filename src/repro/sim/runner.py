"""Repeated-trial seed derivation and spec factories.

The paper repeats each configuration 20 times with randomized ordering
over 12 hours (§5.2).  Ordering randomization exists to decorrelate
configurations from diurnal network drift; in simulation the analogue
is giving every (configuration, trial) pair an *independent* random
substream, which :class:`TrialRunner` does via
:class:`~repro.rng.RngFactory` seed derivation.  Each trial builds a
fresh :class:`~repro.sim.scenario.Scenario`, so trials are i.i.d. and
embarrassingly reproducible: ``(root_seed, config_label, trial_index)``
fully determines a result.

That independence is also what makes trials embarrassingly *parallel*.
A runner only *describes* work: ``specs_for`` turns one configuration
into a batch of declarative :class:`~repro.sim.execution.TrialSpec`
objects, which a :class:`~repro.sim.campaign.Campaign` submits — with
every other configuration of the figure — to the execution backend
``Campaign.run(engine)`` is given.  The runner never executes anything
and never chooses a backend.
"""

from __future__ import annotations

from collections.abc import Callable

from ..core.config import PlayerConfig
from ..rng import RngFactory
from .execution import (
    DriverFactory,
    MPTCPLikeSpec,
    MSPlayerSpec,
    ScenarioHook,
    SinglePathSpec,
    TrialSpec,
)
from .profiles import NetworkProfile
from .scenario import ScenarioConfig

__all__ = ["TrialRunner"]


class TrialRunner:
    """Derives per-trial seeds and builds one configuration's specs."""

    def __init__(
        self,
        profile_factory: Callable[[], NetworkProfile],
        scenario_config: ScenarioConfig | None = None,
        root_seed: int = 20141202,  # CoNEXT'14 started Dec 2, 2014
        trials: int = 20,  # the paper's repetition count (§5.2)
    ) -> None:
        self.profile_factory = profile_factory
        self.scenario_config = scenario_config or ScenarioConfig()
        self.root = RngFactory(root_seed)
        self.trials = trials

    def seed_for(self, label: str, trial: int) -> int:
        return self.root.child(label).integer(f"trial-{trial}")

    def specs_for(
        self,
        label: str,
        make_driver: DriverFactory,
        scenario_hook: ScenarioHook | None = None,
    ) -> list[TrialSpec]:
        """One configuration's trial batch, ready for ``Campaign.add``."""
        return [
            TrialSpec(
                label=label,
                trial=trial,
                seed=self.seed_for(label, trial),
                profile_factory=self.profile_factory,
                driver=make_driver,
                scenario_config=self.scenario_config,
                scenario_hook=scenario_hook,
            )
            for trial in range(self.trials)
        ]

    # -- canned factories ---------------------------------------------------------

    def msplayer(
        self,
        config: PlayerConfig,
        stop: str = "prebuffer",
        target_cycles: int = 3,
    ) -> MSPlayerSpec:
        return MSPlayerSpec(config=config, stop=stop, target_cycles=target_cycles)

    def singlepath(
        self,
        iface_index: int,
        chunk_bytes: int,
        config: PlayerConfig,
        stop: str = "prebuffer",
        target_cycles: int = 3,
    ) -> SinglePathSpec:
        return SinglePathSpec(
            iface_index=iface_index,
            chunk_bytes=chunk_bytes,
            config=config,
            stop=stop,
            target_cycles=target_cycles,
        )

    def mptcp(
        self,
        config: PlayerConfig,
        stop: str = "prebuffer",
        target_cycles: int = 3,
    ) -> MPTCPLikeSpec:
        return MPTCPLikeSpec(config=config, stop=stop, target_cycles=target_cycles)
