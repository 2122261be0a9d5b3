"""The benchmark harness's view of the program: every name it reaches for.

``perfbench/`` measures the program through its public API and stays
frozen for any change that claims a gain, so a deletion that breaks one
of its imports would otherwise surface only when the benchmark runs.
These tests import the harness modules and call what a round calls: the
environment block, the event counter, the tracing engine and the
collection probe, on real session outcomes.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from perfbench import probes, trace  # noqa: E402
from perfbench import round as bench_round  # noqa: E402
from repro.core.config import PlayerConfig  # noqa: E402
from repro.net.env import Environment  # noqa: E402
from repro.sim.execution import SerialEngine  # noqa: E402
from repro.sim.profiles import testbed_profile  # noqa: E402
from repro.sim.runner import TrialRunner  # noqa: E402
from repro.sim.scenario import ScenarioConfig  # noqa: E402


@pytest.fixture(scope="module")
def specs():
    runner = TrialRunner(
        testbed_profile, scenario_config=ScenarioConfig(video_duration_s=120.0), trials=3
    )
    return runner.specs_for("surface", runner.msplayer(PlayerConfig()))


def test_environment_block_names_the_one_kernel_and_transport():
    block = bench_round._environment()
    assert block["default_kernel"] == "heapq"
    assert block["default_ipc"] == "pipe"
    assert block["compiled_core_built"] is False
    assert block["numpy"]


def test_kernel_modules_map_to_the_kernel_layer():
    package = Path(trace._PACKAGE_ROOT)
    for module in ("net/env.py", "net/events.py", "net/simclock.py"):
        assert trace.layer_of_module(str(package / module)) == "net.kernel"


def test_counting_environments_sees_every_environment():
    with trace.counting_environments() as created:
        env = Environment()
        env.call_later(1.0, lambda: None)
        env.run()
    assert created == [env] and env.scheduled_count == 1
    Environment()  # built after the block: no longer counted
    assert created == [env]


def test_tracing_engine_replays_trials_bit_identically(specs):
    tracer = trace.Tracer("surface")
    with trace.counting_environments() as created:
        engine = trace.TracingEngine(tracer, created)
        traced = engine.map(specs)
    assert traced == SerialEngine().map(specs)
    assert engine.sessions == len(specs) and engine.events > 0
    assert len(tracer.named("sim.driver.run")) == len(specs)


def test_tracing_engine_collects_through_the_map_only_branch(specs):
    from repro.sim.shm import collect_trials

    tracer = trace.Tracer("surface")
    with trace.counting_environments() as created:
        traced = collect_trials(trace.TracingEngine(tracer, created), specs)
    serial = collect_trials(SerialEngine(), specs)
    for name, column in serial.dense.items():
        assert traced.dense[name].tobytes() == column.tobytes(), name
    assert traced.sides == serial.sides
    assert traced.outcomes == SerialEngine().map(specs)


def test_collection_probe_on_real_outcomes(specs):
    metrics = probes.collection(SerialEngine().map(specs))
    assert set(metrics) == {
        "sim.shm.collect_us_per_row",
        "sim.shm.side_bytes_per_row",
        "sim.campaign.assemble_us_per_row",
    }
    assert all(value > 0.0 for value in metrics.values())
    assert set(probes.collection([]).values()) == {0.0}


def test_kernel_storm_probe_counts_its_events():
    assert probes._callback_storm(chains=2, depth=10) > 0.0


def test_kernel_and_tcp_probes_clear_their_sanity_floors():
    """Floors two orders of magnitude under any real rate: they catch a
    kernel or TCP path gone pathologically slow, not a regression."""
    assert probes._callback_storm(chains=10, depth=300) > 10_000
    assert probes._generator_storm(processes=10, timeouts=300) > 10_000
    assert probes._tcp_exchanges(exchanges=300) > 100
