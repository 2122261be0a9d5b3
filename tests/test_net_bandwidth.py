"""Bandwidth processes: segment validity and long-run means."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.net.bandwidth import (
    ARLogNormalBandwidth,
    CompositeBandwidth,
    ConstantBandwidth,
    MarkovBandwidth,
    TraceBandwidth,
)


def time_average(process, horizon: float) -> float:
    """Empirical time-weighted mean rate over [0, horizon]."""
    elapsed = 0.0
    weighted = 0.0
    for duration, rate in process.segments():
        take = min(duration, horizon - elapsed)
        weighted += take * rate
        elapsed += take
        if elapsed >= horizon:
            break
    return weighted / horizon



def _rng():
    return np.random.Generator(np.random.PCG64(5))


#: A NaN passes every ``x <= 0`` check, then leaves a flow stalled at
#: zero bytes (or the chain's stationary solve failing to converge).
NAN_PROCESSES = {
    "constant-rate": lambda: ConstantBandwidth(math.nan),
    "constant-duration": lambda: ConstantBandwidth(1e6, segment_duration=math.nan),
    "trace-duration": lambda: TraceBandwidth([(math.nan, 1e6)]),
    "trace-rate": lambda: TraceBandwidth([(1.0, 1e6), (1.0, math.nan)]),
    "ar-mean": lambda: ARLogNormalBandwidth(math.nan, 0.5, _rng()),
    "ar-sigma": lambda: ARLogNormalBandwidth(1e6, math.nan, _rng()),
    "ar-interval": lambda: ARLogNormalBandwidth(1e6, 0.5, _rng(), interval=math.nan),
    "markov-rate": lambda: MarkovBandwidth([(math.nan, 1.0), (1e6, 1.0)], _rng()),
    "markov-holding": lambda: MarkovBandwidth([(1e6, math.nan), (1e6, 1.0)], _rng()),
}


@pytest.mark.parametrize("make", NAN_PROCESSES.values(), ids=NAN_PROCESSES.keys())
def test_nan_parameters_rejected(make):
    with pytest.raises(ConfigError):
        make()

class TestConstant:
    def test_segments(self):
        process = ConstantBandwidth(1e6, segment_duration=2.0)
        duration, rate = next(process.segments())
        assert (duration, rate) == (2.0, 1e6)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            ConstantBandwidth(0.0)


class TestMarkov:
    def test_stationary_mean_two_state(self, rng):
        process = MarkovBandwidth([(2e6, 4.0), (1e6, 1.0)], rng)
        # pi weights by holding time: (4*2e6 + 1*1e6) / 5.
        assert process.mean_rate == pytest.approx(1.8e6, rel=1e-6)

    def test_empirical_mean_approaches_stationary(self, rng):
        process = MarkovBandwidth([(2e6, 2.0), (0.5e6, 1.0)], rng)
        empirical = time_average(process, horizon=8000.0)
        assert empirical == pytest.approx(process.mean_rate, rel=0.08)

    def test_rates_come_from_state_set(self, rng):
        process = MarkovBandwidth([(2e6, 1.0), (1e6, 1.0)], rng)
        rates = set()
        for _, (duration, rate) in zip(range(50), process.segments(), strict=False):
            assert duration > 0
            rates.add(rate)
        assert rates <= {2e6, 1e6}
        assert len(rates) == 2  # both states visited in 50 transitions

    def test_needs_two_states(self, rng):
        with pytest.raises(ConfigError):
            MarkovBandwidth([(1e6, 1.0)], rng)

    def test_transition_matrix_validated(self, rng):
        with pytest.raises(ConfigError):
            MarkovBandwidth([(1e6, 1.0), (2e6, 1.0)], rng, transitions=[[0.5, 0.5], [1.0, 0.0]])
        with pytest.raises(ConfigError):
            MarkovBandwidth([(1e6, 1.0), (2e6, 1.0)], rng, transitions=[[0.0, 0.9], [1.0, 0.0]])


class TestARLogNormal:
    def test_mean_calibration(self, rng):
        process = ARLogNormalBandwidth(1e6, sigma=0.3, rng=rng, rho=0.7, interval=0.25)
        empirical = time_average(process, horizon=4000.0)
        assert empirical == pytest.approx(1e6, rel=0.1)

    def test_rates_respect_clamps(self, rng):
        process = ARLogNormalBandwidth(
            1e6, sigma=1.0, rng=rng, rho=0.0, floor_fraction=0.2, ceiling_fraction=2.0
        )
        for _, (duration, rate) in zip(range(500), process.segments(), strict=False):
            assert duration == pytest.approx(0.5)
            assert 0.2e6 <= rate <= 2.0e6

    def test_zero_sigma_is_constant(self, rng):
        process = ARLogNormalBandwidth(1e6, sigma=0.0, rng=rng)
        rates = [rate for _, (d, rate) in zip(range(20), process.segments(), strict=False)]
        assert all(rate == pytest.approx(1e6) for rate in rates)

    def test_parameter_validation(self, rng):
        with pytest.raises(ConfigError):
            ARLogNormalBandwidth(0.0, 0.2, rng)
        with pytest.raises(ConfigError):
            ARLogNormalBandwidth(1e6, 0.2, rng, rho=1.0)
        with pytest.raises(ConfigError):
            ARLogNormalBandwidth(1e6, -0.1, rng)


class TestTrace:
    def test_replay_and_loop(self):
        process = TraceBandwidth([(1.0, 1e6), (2.0, 2e6)], loop=True)
        segments = [segment for _, segment in zip(range(4), process.segments(), strict=False)]
        assert segments == [(1.0, 1e6), (2.0, 2e6), (1.0, 1e6), (2.0, 2e6)]

    def test_mean_rate_time_weighted(self):
        process = TraceBandwidth([(1.0, 1e6), (3.0, 2e6)])
        assert process.mean_rate == pytest.approx((1e6 + 6e6) / 4.0)

    def test_no_loop_holds_last_rate(self):
        process = TraceBandwidth([(1.0, 1e6)], loop=False)
        segments = process.segments()
        next(segments)
        duration, rate = next(segments)
        assert rate == 1e6 and duration > 100

    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigError):
            TraceBandwidth([])

    def test_invalid_segment_rejected(self):
        with pytest.raises(ConfigError):
            TraceBandwidth([(0.0, 1e6)])


class TestComposite:
    def test_constant_modulation_is_identity(self, rng):
        base = TraceBandwidth([(1.0, 1e6), (1.0, 2e6)])
        modulation = ConstantBandwidth(5.0)  # any constant: normalized away
        composite = CompositeBandwidth(base, modulation)
        rates = [rate for _, (d, rate) in zip(range(4), composite.segments(), strict=False)]
        assert rates == [pytest.approx(1e6), pytest.approx(2e6)] * 2

    def test_segment_boundaries_merge(self, rng):
        base = TraceBandwidth([(2.0, 1e6)])
        modulation = TraceBandwidth([(1.0, 2.0), (1.0, 0.5)])  # mean 1.25
        composite = CompositeBandwidth(base, modulation)
        first = next(composite.segments())
        assert first[0] == pytest.approx(1.0)  # cut at the finer boundary

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_segments_always_positive(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        base = ARLogNormalBandwidth(1e6, sigma=0.4, rng=rng)
        modulation = MarkovBandwidth([(1.2, 4.0), (0.6, 2.0)], rng)
        composite = CompositeBandwidth(base, modulation)
        for _, (duration, rate) in zip(range(200), composite.segments(), strict=False):
            assert duration > 0
            assert rate > 0


# ---------------------------------------------------------------------------
# The block sampler is the scalar stream, bit for bit
# ---------------------------------------------------------------------------


class ScalarARLogNormal(ARLogNormalBandwidth):
    """Reference: the original one-draw-per-segment AR(1) sampler, verbatim
    (three scalar numpy calls per segment, numpy-scalar arithmetic)."""

    __slots__ = ()

    def segments(self):
        innovation_std = self.sigma * np.sqrt(1.0 - self.rho**2)
        log_rate = self._mu + self._rng.normal(0.0, self.sigma)
        while True:
            rate = float(np.clip(np.exp(log_rate), self.floor, self.ceiling))
            yield (self.interval, rate)
            log_rate = (
                (1.0 - self.rho) * self._mu
                + self.rho * log_rate
                + self._rng.normal(0.0, innovation_std)
            )


def _generator(seed, stream=0):
    return np.random.Generator(np.random.PCG64([seed, stream]))


def _markov(seed):
    return MarkovBandwidth([(1.0, 2.0), (0.4, 0.7), (1.6, 1.1)], rng=_generator(seed, 1))


class TestBlockSamplerEqualsScalarStream:
    SEGMENTS = 10_000

    @pytest.mark.parametrize("seed", [0, 7, 2014])
    @pytest.mark.parametrize("rho", [0.0, 0.8, 0.99])
    @pytest.mark.parametrize("sigma", [0.0, 0.35, 2.5])
    def test_ar_stream_equals_the_scalar_reference(self, seed, rho, sigma):
        kwargs = dict(mean_rate=2.0e6, sigma=sigma, rho=rho, interval=0.5)
        block = ARLogNormalBandwidth(rng=_generator(seed), **kwargs)
        scalar = ScalarARLogNormal(rng=_generator(seed), **kwargs)
        got = list(itertools.islice(block.segments(), self.SEGMENTS))
        assert got == list(itertools.islice(scalar.segments(), self.SEGMENTS))
        assert all(type(rate) is float for _duration, rate in got[:40])
        if sigma > 0:
            # sigma=2.5 exercises both clamps, so the block clip is the scalar clip.
            assert len({rate for _duration, rate in got}) > 2

    @pytest.mark.parametrize("seed", [1, 99])
    def test_composite_stream_equals_the_scalar_reference(self, seed):
        kwargs = dict(mean_rate=1.2e6, sigma=0.4, rho=0.8, interval=0.5)
        block = CompositeBandwidth(
            ARLogNormalBandwidth(rng=_generator(seed), **kwargs), _markov(seed)
        )
        scalar = CompositeBandwidth(
            ScalarARLogNormal(rng=_generator(seed), **kwargs), _markov(seed)
        )
        assert list(itertools.islice(block.segments(), self.SEGMENTS)) == list(
            itertools.islice(scalar.segments(), self.SEGMENTS)
        )

    @settings(max_examples=25, deadline=None)
    @given(
        reads=st.lists(st.integers(min_value=0, max_value=70), min_size=1, max_size=20),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_read_pattern_does_not_matter(self, reads, seed):
        """Two consumers pulling from two processes in any interleaving
        see the streams they would have seen alone: a block drawn ahead
        for one touches no generator but its own."""
        first = ARLogNormalBandwidth(1.0e6, sigma=0.3, rng=_generator(seed, 0)).segments()
        second = ARLogNormalBandwidth(3.0e6, sigma=0.6, rng=_generator(seed, 1)).segments()
        pulled: tuple[list, list] = ([], [])
        for turn, count in enumerate(reads):
            stream, sink = ((first, pulled[0]), (second, pulled[1]))[turn % 2]
            sink.extend(itertools.islice(stream, count))
        alone = (
            ScalarARLogNormal(1.0e6, sigma=0.3, rng=_generator(seed, 0)).segments(),
            ScalarARLogNormal(3.0e6, sigma=0.6, rng=_generator(seed, 1)).segments(),
        )
        for got, reference in zip(pulled, alone, strict=True):
            assert got == list(itertools.islice(reference, len(got)))

    def test_numpy_block_normal_equals_scalar_draws(self):
        """Pinned numpy fact #1: ``normal(size=k)`` is k scalar draws."""
        for scale in (0.0, 0.21, 3.0):
            block_rng, scalar_rng = _generator(5), _generator(5)
            for size in (1, 3, 16, 7, 32, 16):
                block = block_rng.normal(0.0, scale, size=size)
                scalars = [scalar_rng.normal(0.0, scale) for _ in range(size)]
                assert block.tolist() == scalars

    def test_numpy_array_exp_equals_scalar_exp(self):
        """Pinned numpy fact #2: ``np.exp`` of an array (or list) is
        ``np.exp`` of each element — at every block length, so a SIMD
        body and its scalar tail agree."""
        values = _generator(11).normal(12.0, 4.0, size=20_000)
        scalar = [float(np.exp(value)) for value in values]
        assert np.exp(values).tolist() == scalar
        for size in (1, 2, 3, 5, 8, 15, 16, 17, 31):
            for offset in range(0, 2_000, size):
                chunk = values[offset : offset + size].tolist()
                assert np.exp(chunk).tolist() == scalar[offset : offset + size]

    def test_live_block_storage_of_a_200_link_world_is_bounded(self):
        """Every started AR(1) stream keeps one block alive.  Budget:
        1 KiB per link (measured: 0.8 KiB at the block size of 16, the
        list plus its boxed floats; 1.3 KiB at 32; 8.3 KiB at 256, which
        showed up as +9.5 % peak RSS on the 100-client population)."""
        import tracemalloc

        from repro.net import bandwidth as bandwidth_module

        processes = [
            ARLogNormalBandwidth(1.0e6, sigma=0.3, rng=_generator(index)) for index in range(200)
        ]
        tracemalloc.start()
        try:
            streams = [process.segments() for process in processes]
            for stream in streams:
                # Into the second block: the first holds the initial state only.
                assert len(list(itertools.islice(stream, 3))) == 3
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        held = sum(
            stat.size
            for stat in snapshot.filter_traces(
                [tracemalloc.Filter(True, bandwidth_module.__file__)]
            ).statistics("filename")
        )
        assert 0 < held <= 200 * 1024, f"{held} bytes of live block storage"
