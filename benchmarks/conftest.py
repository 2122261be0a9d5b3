"""Shared benchmark plumbing.

Each benchmark regenerates one paper figure/table by running its
registered experiment through :class:`~repro.study.Study` (the one way
in; ``run_study`` below), asserts the *shape* claims (orderings,
trends — not absolute seconds), prints the rendered panel, and archives
it under ``benchmarks/results/``.

Trial count: the paper repeats 20×; benches default to 10 for CI speed.
Set ``REPRO_TRIALS=20`` for a full paper-fidelity run.

Trial parallelism: ``REPRO_JOBS`` selects the trial execution backend
for every campaign (see :mod:`repro.sim.execution`) — ``serial`` (the
default), ``auto`` (one worker process per CPU), or an integer worker
count.  Trials derive independent seeds, so the archived panels are
byte-identical whatever the backend; ``REPRO_TRIALS=20 REPRO_JOBS=auto``
is the fast paper-fidelity run.

Caching: ``REPRO_CACHE=DIR`` points every study at a content-addressed
cell cache (:mod:`repro.study.cache`), so repeated bench invocations
against the same code recompute nothing — useful when iterating on a
bench's assertions rather than the simulation.  Cached panels are
byte-identical to fresh ones, but the *timing* then measures the cache,
so leave it unset for real measurements (``run_study`` passes the knob
through explicitly for the same reason).
"""

from __future__ import annotations

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def pytest_addoption(parser):
    # CI-sized pass: `pytest benchmarks/bench_x6_multiclient.py --smoke`
    # (and x8) shrinks workload sizes and skips the speedup floors
    # (shared CI runners are too noisy to assert ratios on) while still
    # exercising every path and archiving the measured numbers.
    parser.addoption(
        "--smoke",
        action="store_true",
        default=False,
        help="minimal benchmark sizes for CI; measures and archives, "
        "skips speedup-floor assertions",
    )


@pytest.fixture(scope="session")
def smoke(request) -> bool:
    return request.config.getoption("--smoke")


def trials(default: int = 10) -> int:
    return int(os.environ.get("REPRO_TRIALS", default))


def jobs(default: str | int | None = None) -> str | int | None:
    """The ``jobs`` knob benches pass to ``Study.run``."""
    return os.environ.get("REPRO_JOBS", default)


@pytest.fixture
def record_result(capsys):
    """Print a rendered experiment and archive it to results/."""

    def _record(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        with capsys.disabled():
            print(f"\n{text}\n")

    return _record


def run_study(benchmark, experiment_id, *, jobs=None, cache=None, **params):
    """Run a registered experiment once, timed; returns its
    :class:`~repro.analysis.experiments.ExperimentResult`.

    The benches drive experiments by id through
    :class:`~repro.study.Study` (the path the CLI generates), so bench
    coverage cannot drift from ``repro list`` — an id with no schema,
    or params the schema rejects, fails here exactly like it fails on
    the command line, before the timer starts.
    ``tests/test_study_registry.py`` gates the inverse: every
    registered id is referenced by some bench file.

    ``cache`` (or ``REPRO_CACHE``) points at a study cell cache — the
    panel is byte-identical either way, but a hit measures the cache,
    not the simulation.
    """
    from repro.study import Study

    study = Study(experiment_id, **params)
    return benchmark.pedantic(
        lambda: study.run(jobs=jobs, cache=cache).only().result, rounds=1, iterations=1
    )
