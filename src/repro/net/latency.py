"""Round-trip-time processes.

RTT drives everything in the paper's analysis of the bootstrap phase
(Fig. 1): a secure connection costs ``4R + Δ1 + Δ2``, video info costs
``6R + Δ1 + Δ2``, and each HTTP range request idles one RTT before its
first byte arrives.  The paper's measurements put LTE RTT at 2–3× WiFi
(θ ∈ [2, 3], §6), which is what makes WiFi carry >60 % of the traffic
in Table 1.

Latency processes return *one-way* propagation delays; callers double
them for RTT.  Per-sample jitter models the queueing noise observed on
real last-mile links.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError


class LatencyProcess:
    """Interface for one-way delay sampling."""

    __slots__ = ("base_delay",)

    #: Nominal one-way delay in seconds (RTT / 2), used for reporting.
    base_delay: float

    def sample(self) -> float:
        """Draw one one-way delay in seconds."""
        raise NotImplementedError

    @property
    def base_rtt(self) -> float:
        """Nominal round-trip time in seconds."""
        return 2.0 * self.base_delay


class ConstantLatency(LatencyProcess):
    """Deterministic delay, for calibration and closed-form checks.

    >>> ConstantLatency(0.010).sample()
    0.01
    """

    __slots__ = ()

    def __init__(self, one_way_delay: float) -> None:
        if not one_way_delay >= 0:
            raise ConfigError(f"delay must be non-negative, got {one_way_delay}")
        self.base_delay = float(one_way_delay)

    def sample(self) -> float:
        return self.base_delay


class JitteredLatency(LatencyProcess):
    """Base delay plus half-normal queueing jitter, floored at a minimum.

    Jitter is one-sided (delays only get worse than propagation), which
    matches queueing reality and keeps the closed-form Fig. 1 bounds
    meaningful as *lower* bounds.
    """

    __slots__ = ("jitter_std", "min_delay", "_rng")

    def __init__(
        self,
        one_way_delay: float,
        jitter_std: float,
        rng: np.random.Generator,
        min_delay: float | None = None,
    ) -> None:
        if not one_way_delay >= 0:
            raise ConfigError(f"delay must be non-negative, got {one_way_delay}")
        if not jitter_std >= 0:
            raise ConfigError(f"jitter_std must be non-negative, got {jitter_std}")
        self.base_delay = float(one_way_delay)
        self.jitter_std = float(jitter_std)
        self.min_delay = float(min_delay) if min_delay is not None else 0.5 * one_way_delay
        self._rng = rng

    def sample(self) -> float:
        jitter = abs(float(self._rng.normal(0.0, self.jitter_std))) if self.jitter_std else 0.0
        return max(self.base_delay + jitter, self.min_delay)
