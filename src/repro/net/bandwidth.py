"""Time-varying link capacity processes.

The paper's experiments run over real WiFi and LTE links whose capacity
fluctuates on sub-second to multi-second timescales; the chunk
schedulers exist precisely because of this variability (§3.3).  We model
capacity as a piecewise-constant random process: each process emits
``(duration, rate)`` segments, and :class:`repro.net.link.Link` applies
them to its fluid model.

Models provided:

* :class:`ConstantBandwidth` — calibration runs and unit tests;
* :class:`MarkovBandwidth` — two-or-more-state Markov modulation, the
  classic model for WiFi contention / LTE cell-load shifts; produces the
  "large bursts" the harmonic-mean estimator is designed to resist;
* :class:`ARLogNormalBandwidth` — AR(1) in log-rate, capturing smooth
  correlated drift around a mean;
* :class:`TraceBandwidth` — replay of a recorded trace;
* :class:`CompositeBandwidth` — multiplicative superposition (e.g. AR(1)
  drift × Markov outages), used by the "youtube" wide-area profile.

All randomness comes from a generator passed in explicitly, so trials
are reproducible (see :mod:`repro.rng`).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from ..errors import ConfigError

#: A capacity segment: hold ``rate`` bytes/s for ``duration`` seconds.
Segment = tuple[float, float]

#: Segments an AR(1) process samples per vectorized block.  Kept small:
#: every live link holds a block, and a population has hundreds of
#: links that each consume only a few segments per ON period.
_AR_BLOCK = 16


class BandwidthProcess:
    """Interface: an endless iterator of piecewise-constant capacity segments."""

    __slots__ = ("mean_rate",)

    #: Long-run mean rate in bytes/s, used for calibration and reporting.
    mean_rate: float

    def segments(self) -> Iterator[Segment]:
        """Yield ``(duration_s, rate_bytes_per_s)`` forever."""
        raise NotImplementedError

    def expected_mean(self) -> float:
        """The analytic long-run mean, for sanity checks in tests."""
        return self.mean_rate


class ConstantBandwidth(BandwidthProcess):
    """Fixed capacity; segments of one second keep downstream logic uniform.

    >>> process = ConstantBandwidth(1_000_000.0)
    >>> next(process.segments())
    (1.0, 1000000.0)
    """

    __slots__ = ("segment_duration",)

    def __init__(self, rate: float, segment_duration: float = 1.0) -> None:
        if not rate > 0:
            raise ConfigError(f"rate must be positive, got {rate}")
        if not segment_duration > 0:
            raise ConfigError("segment_duration must be positive")
        self.mean_rate = float(rate)
        self.segment_duration = float(segment_duration)

    def segments(self) -> Iterator[Segment]:
        while True:
            yield (self.segment_duration, self.mean_rate)


class MarkovBandwidth(BandwidthProcess):
    """Continuous-time Markov-modulated capacity.

    ``states`` is a sequence of ``(rate, mean_holding_time)`` pairs.  At
    each transition the next state is drawn from ``transitions`` (row-
    stochastic matrix) or uniformly among the *other* states if no
    matrix is given.  Holding times are exponential, the standard model
    for load shifts on shared wireless channels.
    """

    __slots__ = ("states", "_rng", "_initial_state", "_transitions")

    def __init__(
        self,
        states: Sequence[tuple[float, float]],
        rng: np.random.Generator,
        transitions: Sequence[Sequence[float]] | None = None,
        initial_state: int | None = None,
    ) -> None:
        if len(states) < 2:
            raise ConfigError("MarkovBandwidth needs at least two states")
        for rate, holding in states:
            if not (rate > 0 and holding > 0):
                raise ConfigError(f"invalid state (rate={rate}, holding={holding})")
        self.states = [(float(r), float(h)) for r, h in states]
        self._rng = rng
        self._initial_state = initial_state
        n = len(states)
        if transitions is None:
            # Uniform among other states.
            self._transitions = np.full((n, n), 1.0 / (n - 1))
            np.fill_diagonal(self._transitions, 0.0)
        else:
            matrix = np.asarray(transitions, dtype=float)
            if matrix.shape != (n, n):
                raise ConfigError(f"transition matrix must be {n}x{n}")
            if not np.allclose(matrix.sum(axis=1), 1.0):
                raise ConfigError("transition matrix rows must sum to 1")
            if np.any(np.diag(matrix) > 0):
                raise ConfigError("self-transitions are not allowed (merge holding times)")
            self._transitions = matrix
        self.mean_rate = self._stationary_mean()

    def _stationary_mean(self) -> float:
        """Time-weighted stationary mean rate of the chain."""
        n = len(self.states)
        holding = np.array([h for _, h in self.states])
        rates_out = 1.0 / holding
        # Generator matrix Q: off-diagonal q_ij = rate_out_i * P_ij.
        q = self._transitions * rates_out[:, None]
        np.fill_diagonal(q, -rates_out)
        # Solve pi Q = 0, sum(pi) = 1.
        a = np.vstack([q.T, np.ones(n)])
        b = np.zeros(n + 1)
        b[-1] = 1.0
        pi, *_ = np.linalg.lstsq(a, b, rcond=None)
        rates = np.array([r for r, _ in self.states])
        return float(pi @ rates)

    def segments(self) -> Iterator[Segment]:
        n = len(self.states)
        if self._initial_state is not None:
            state = self._initial_state
        else:
            state = int(self._rng.integers(0, n))
        while True:
            rate, holding = self.states[state]
            duration = float(self._rng.exponential(holding))
            # Clamp pathological zero-length draws so the link
            # always makes progress.
            yield (max(duration, 1e-6), rate)
            state = int(self._rng.choice(n, p=self._transitions[state]))


class ARLogNormalBandwidth(BandwidthProcess):
    """AR(1) process in log-rate, sampled on a fixed interval.

    ``log rate_t = (1-rho) * log mean + rho * log rate_{t-1} + eps`` with
    ``eps ~ Normal(0, sigma * sqrt(1 - rho^2))``, so the *stationary*
    std of log-rate is ``sigma`` regardless of ``rho``.  Rates are
    clamped to ``[floor, ceiling]`` to keep the fluid model sane.
    """

    __slots__ = ("sigma", "rho", "interval", "floor", "ceiling", "_rng", "_mu")

    def __init__(
        self,
        mean_rate: float,
        sigma: float,
        rng: np.random.Generator,
        rho: float = 0.8,
        interval: float = 0.5,
        floor_fraction: float = 0.1,
        ceiling_fraction: float = 4.0,
    ) -> None:
        if not mean_rate > 0:
            raise ConfigError("mean_rate must be positive")
        if not 0.0 <= rho < 1.0:
            raise ConfigError(f"rho must be in [0, 1), got {rho}")
        if not sigma >= 0:
            raise ConfigError("sigma must be non-negative")
        if not interval > 0:
            raise ConfigError("interval must be positive")
        self.mean_rate = float(mean_rate)
        self.sigma = float(sigma)
        self.rho = float(rho)
        self.interval = float(interval)
        self.floor = floor_fraction * mean_rate
        self.ceiling = ceiling_fraction * mean_rate
        self._rng = rng
        # The lognormal mean exceeds exp(mu); correct mu so that the
        # *linear* mean matches mean_rate: E[X] = exp(mu + sigma^2/2).
        self._mu = np.log(mean_rate) - 0.5 * sigma**2

    def segments(self) -> Iterator[Segment]:
        # Innovations are drawn a block at a time and ``exp``/``clip``
        # run once per block.  The stream is the scalar one bit for bit:
        # ``normal(size=k)`` equals k scalar draws and ``np.exp`` of an
        # array equals ``np.exp`` of each element (``math.exp`` does
        # not), while the recursion itself is plain float arithmetic in
        # the original operation order.  Drawing ahead is invisible: the
        # generator belongs to this process alone.
        rho = self.rho
        mu = float(self._mu)
        drift = (1.0 - rho) * mu
        innovation_std = self.sigma * float(np.sqrt(1.0 - rho**2))
        interval, floor, ceiling = self.interval, self.floor, self.ceiling
        normal = self._rng.normal
        log_rate = mu + float(normal(0.0, self.sigma))
        block = [log_rate]
        while True:
            rates = np.clip(np.exp(block), floor, ceiling).tolist()
            del block  # a suspended generator holds one list, not two
            for rate in rates:
                yield (interval, rate)
            block = normal(0.0, innovation_std, size=_AR_BLOCK).tolist()
            for index, innovation in enumerate(block):
                log_rate = drift + rho * log_rate + innovation
                block[index] = log_rate


class TraceBandwidth(BandwidthProcess):
    """Replay a recorded ``(duration, rate)`` trace, optionally looping."""

    __slots__ = ("trace", "loop")

    def __init__(self, trace: Sequence[Segment], loop: bool = True) -> None:
        if not trace:
            raise ConfigError("trace must be non-empty")
        for duration, rate in trace:
            if not (duration > 0 and rate > 0):
                raise ConfigError(f"invalid trace segment ({duration}, {rate})")
        self.trace = [(float(d), float(r)) for d, r in trace]
        self.loop = loop
        total_time = sum(d for d, _ in self.trace)
        self.mean_rate = sum(d * r for d, r in self.trace) / total_time

    def segments(self) -> Iterator[Segment]:
        while True:
            yield from self.trace
            if not self.loop:
                # Hold the last rate forever once the trace is exhausted.
                last_rate = self.trace[-1][1]
                while True:
                    yield (3600.0, last_rate)


class CompositeBandwidth(BandwidthProcess):
    """Multiplicative superposition of two processes.

    The second process is interpreted as a dimensionless *modulation*
    whose rates are divided by its own mean, so the composite's mean is
    approximately the first process's mean.  Used by the wide-area
    "youtube" profile: smooth AR(1) drift × Markov load shifts.
    """

    __slots__ = ("base", "modulation")

    def __init__(self, base: BandwidthProcess, modulation: BandwidthProcess) -> None:
        self.base = base
        self.modulation = modulation
        self.mean_rate = base.mean_rate

    def segments(self) -> Iterator[Segment]:
        base_iter = self.base.segments()
        mod_iter = self.modulation.segments()
        base_left, base_rate = next(base_iter)
        mod_left, mod_rate = next(mod_iter)
        scale = self.modulation.mean_rate
        while True:
            duration = min(base_left, mod_left)
            yield (duration, base_rate * (mod_rate / scale))
            base_left -= duration
            mod_left -= duration
            if base_left <= 1e-12:
                base_left, base_rate = next(base_iter)
            if mod_left <= 1e-12:
                mod_left, mod_rate = next(mod_iter)
