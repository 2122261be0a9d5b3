"""Seed-deterministic arrival processes for client populations.

A population experiment needs *when each client shows up*.  The
existing multi-client experiments hard-stagger arrivals uniformly over
a couple of seconds; city-scale workloads need shaped processes — a
diurnal rate curve with a rush-hour hump, or a flash crowd slamming the
deployment inside a few seconds of a release.

The generator is an inhomogeneous Poisson process *conditioned on the
client count*: given that exactly ``n`` clients arrive in the horizon,
their arrival times are i.i.d. with density proportional to the rate
curve, so we sample them by thinning against the curve's peak rate
(accept a uniform candidate ``t`` with probability ``rate(t)/peak``)
and sort.  Conditioning keeps populations exactly ``client_count``
strong — the dense batch layout and the replicate comparisons stay
rectangular — while preserving the curve's shape in the arrival
density.

Everything derives from :class:`~repro.rng.RngFactory` streams; the
same ``(seed, spec)`` pair produces the same times on every backend
(the scenario determinism wall holds this to byte identity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..rng import RngFactory

__all__ = [
    "ArrivalSpec",
    "DiurnalCurve",
    "FlashCrowd",
    "thinned_arrival_times",
]


@dataclass(frozen=True)
class DiurnalCurve:
    """A raised-cosine daily rate shape, compressed to the sim horizon.

    ``rate(t) = 1 + amplitude * (1 - cos(2π(t/period - phase))) / 2``
    in arbitrary units — only the *shape* matters because arrival times
    are conditioned on the client count.  ``amplitude = 0`` degenerates
    to a homogeneous Poisson process; ``phase`` positions the peak
    (``phase = 0.5`` puts the trough at the horizon edges).
    """

    amplitude: float = 0.0
    period_s: float = 60.0
    phase: float = 0.5

    def __post_init__(self) -> None:
        if self.amplitude < 0:
            raise ConfigError("amplitude must be non-negative")
        if self.period_s <= 0:
            raise ConfigError("period_s must be positive")

    @property
    def peak_rate(self) -> float:
        """The thinning bound: ``rate(t) <= peak_rate`` everywhere."""
        return 1.0 + self.amplitude

    def rate(self, t: float) -> float:
        swing = 0.5 * (1.0 - math.cos(2.0 * math.pi * (t / self.period_s - self.phase)))
        return 1.0 + self.amplitude * swing


def thinned_arrival_times(
    rng: np.random.Generator,
    curve: DiurnalCurve,
    horizon_s: float,
    count: int,
) -> list[float]:
    """``count`` sorted arrival times in ``[0, horizon_s)`` by thinning.

    Rejection sampling against ``curve.peak_rate``: uniform candidates
    are accepted with probability ``rate(t)/peak``, so accepted times
    follow the curve's normalized density exactly.  Acceptance is at
    least ``1/peak_rate`` per candidate, so the loop terminates for any
    finite amplitude.
    """
    if horizon_s <= 0:
        raise ConfigError("horizon_s must be positive")
    if count < 0:
        raise ConfigError("count must be non-negative")
    peak = curve.peak_rate
    times: list[float] = []
    while len(times) < count:
        candidate = float(rng.uniform(0.0, horizon_s))
        if float(rng.uniform(0.0, peak)) < curve.rate(candidate):
            times.append(candidate)
    times.sort()
    return times


@dataclass(frozen=True)
class FlashCrowd:
    """A burst of ``clients`` arrivals inside ``[at_s, at_s + width_s)``."""

    at_s: float
    clients: int
    width_s: float = 5.0

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ConfigError("at_s must be non-negative")
        if self.clients < 1:
            raise ConfigError("a flash crowd needs at least one client")
        if self.width_s <= 0:
            raise ConfigError("width_s must be positive")


@dataclass(frozen=True)
class ArrivalSpec:
    """Declarative, picklable arrival process for one population.

    The background process spreads clients over ``horizon_s`` along the
    diurnal curve; each :class:`FlashCrowd` claims a fixed share of the
    population and lands it inside its burst window.  ``times`` expands
    the spec into per-client launch delays, deterministic in
    ``(seed, spec)``.
    """

    horizon_s: float = 30.0
    curve: DiurnalCurve = DiurnalCurve()
    flash_crowds: tuple[FlashCrowd, ...] = ()

    def __post_init__(self) -> None:
        if self.horizon_s <= 0:
            raise ConfigError("horizon_s must be positive")

    def crowd_clients(self) -> int:
        return sum(crowd.clients for crowd in self.flash_crowds)

    def times(self, seed: int, count: int) -> list[float]:
        """``count`` sorted launch delays for the whole population.

        Flash-crowd sizes are honored exactly; the remaining clients
        ride the background process.  Raises if the crowds alone exceed
        the population.
        """
        if count < 0:
            raise ConfigError("count must be non-negative")
        burst_total = self.crowd_clients()
        if burst_total > count:
            raise ConfigError(
                f"flash crowds claim {burst_total} clients but the "
                f"population has only {count}"
            )
        factory = RngFactory(seed)
        times = thinned_arrival_times(
            factory.generator("arrivals.background"),
            self.curve,
            self.horizon_s,
            count - burst_total,
        )
        for index, crowd in enumerate(self.flash_crowds):
            crowd_rng = factory.generator(f"arrivals.crowd-{index}")
            times.extend(
                crowd.at_s + float(offset)
                for offset in crowd_rng.uniform(0.0, crowd.width_s, size=crowd.clients)
            )
        times.sort()
        return times
