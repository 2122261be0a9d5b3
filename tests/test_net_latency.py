"""Latency processes: parameter validation."""

import math

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.net.latency import ConstantLatency, JitteredLatency


@pytest.mark.parametrize(
    "make",
    [
        lambda: ConstantLatency(math.nan),
        lambda: JitteredLatency(math.nan, 0.002, np.random.Generator(np.random.PCG64(1))),
        lambda: JitteredLatency(0.010, math.nan, np.random.Generator(np.random.PCG64(1))),
    ],
    ids=["constant", "jittered-delay", "jittered-std"],
)
def test_nan_parameters_rejected(make):
    with pytest.raises(ConfigError):
        make()
