"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import PlayerConfig
from repro.net.bandwidth import ConstantBandwidth
from repro.net.env import Environment
from repro.net.latency import ConstantLatency
from repro.net.link import Link
from repro.study import Study
from repro.units import mbit

@pytest.fixture
def env() -> Environment:
    return Environment()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(12345))


@pytest.fixture
def config() -> PlayerConfig:
    return PlayerConfig()


def make_link(env: Environment, mbps: float = 10.0, name: str = "link") -> Link:
    """A constant-capacity link helper used across net tests."""
    return Link(env, ConstantBandwidth(mbit(mbps)), name=name)


@pytest.fixture
def link(env: Environment) -> Link:
    return make_link(env)


@pytest.fixture
def latency() -> ConstantLatency:
    return ConstantLatency(0.010)  # RTT 20 ms


def assert_batches_identical(a, b) -> None:
    """Two batches of one kind hold bit-identical columns (dtypes included).

    The acceptance bar for every engine's collection (serial, process-
    shm, map-only) and for the one assembly (``from_dense_and_sides``)
    against the object-built oracle in ``tests/object_batches.py``: not
    statistically close — the same bits.  Delegates to the batch's
    ``column_mismatches`` so the column enumeration and comparison
    semantics live in one place.
    """
    assert a.column_mismatches(b) == [], (
        f"columns differ between batches: {a.column_mismatches(b)}"
    )


def assert_collected(collection, specs, reference) -> None:
    """A collection holds exactly what the workers computed for ``specs``.

    ``reference`` is ``[spec.run() for spec in specs]``.  Each dense
    column must carry the bytes of the specs' own dense rows, and the
    side records must equal the specs' own encoding of each result:
    between them, every field of every result.
    """
    specs = list(specs)
    layout = specs[0].dense_columns
    assert list(collection.dense) == [name for name, _dtype in layout]
    rows = [spec.dense_row(result) for spec, result in zip(specs, reference, strict=True)]
    for index, (name, dtype) in enumerate(layout):
        expected = np.array([row[index] for row in rows], dtype=dtype)
        assert collection.dense[name].dtype == dtype, name
        assert collection.dense[name].tobytes() == expected.tobytes(), name
    assert collection.sides == [
        spec.encode_side(result) for spec, result in zip(specs, reference, strict=True)
    ]


def study_result(experiment_id: str, jobs=None, **params):
    """The finished figure/table of one registered experiment, run the
    one way there is: ``Study(id, **params).run(jobs=...)``."""
    return Study(experiment_id, **params).run(jobs=jobs).only().result
