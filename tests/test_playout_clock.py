"""The playout clock against the ticking drivers it replaced.

``ticking_drivers.py`` keeps the three drivers as they were, with a
0.1-s ticker process, OFF-period polls and a watchdog process each.
Every scenario here runs once through them and once through the
product drivers on :class:`~repro.sim.playout.PlayoutClock`, and every
outcome float is compared with ``==``: ``finished_at``, the stop
reason, every ``QoEMetrics`` field (cycles with ``level_at_start_s``,
stalls, per-path bytes and active time, bootstrap milestones), the
buffer's transition log, requests per path, bytes per server and the
adaptive itag history.  The single-session scenarios run on three
playback grids (``TICKS``), since the clock replays the grid's
accumulated floats rather than multiples of ``tick_s``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import replace

import pytest

import repro.scenarios.experiment as scenario_experiment
from repro.core.buffer import BufferPhase, PlayoutBuffer
from repro.core.config import PlayerConfig
from repro.core.metrics import QoEMetrics
from repro.ext import multi_client
from repro.ext.adaptive import (
    AdaptiveSimDriver,
    BufferBasedController,
    FixedBitrateController,
    ThroughputController,
)
from repro.net.env import Environment
from repro.scenarios.experiments import _x9_experiment
from repro.sim.driver import MSPlayerDriver
from repro.sim.playout import PlayoutClock
from repro.sim.profiles import mobility_profile, testbed_profile, youtube_profile
from repro.sim.scenario import Scenario, ScenarioConfig
from repro.sim.singlepath import FLASH_CHUNK, HTML5_CHUNK, SinglePathDriver
from repro.study import get_experiment

import ticking_drivers as ticking

PRODUCT = {"ms": MSPlayerDriver, "sp": SinglePathDriver, "ad": AdaptiveSimDriver}
ORACLE = {
    "ms": ticking.MSPlayerDriver,
    "sp": ticking.SinglePathDriver,
    "ad": ticking.AdaptiveSimDriver,
}


def observe(driver, outcome) -> dict:
    """Everything a session reports, floats untouched."""
    buffer = getattr(driver, "buffer", None)
    if buffer is None and hasattr(driver, "session"):
        buffer = driver.session.buffer
    seen = {
        "finished_at": outcome.finished_at,
        "stop_reason": outcome.stop_reason,
        "metrics": dataclasses.asdict(outcome.metrics),
        "transitions": None if buffer is None else list(buffer.transitions),
        "buffer": None if buffer is None else (buffer.level_s, buffer.playhead_s),
        "now": driver.scenario.env.now,
    }
    for name in (
        "requests_by_path",
        "server_bytes",
        "peak_out_of_order",
        "path_json_delay",
        "path_first_video_delay",
        "itag_history",
    ):
        if hasattr(outcome, name):
            seen[name] = getattr(outcome, name)
    return seen


def run_both(kind: str, make_scenario, make_driver, probe=None, until=None):
    """(oracle observation, product observation, oracle/product events);
    with ``until``, the environment runs on to it after the finish."""
    observations, events = [], []
    for classes in (ORACLE, PRODUCT):
        scenario = make_scenario()
        driver = make_driver(classes[kind], scenario)
        if probe is not None:
            probe(scenario, driver)
        outcome = driver.run()
        if until is not None:
            scenario.env.run(until=until)
        observations.append(observe(driver, outcome))
        events.append(scenario.env.scheduled_count)
    return observations[0], observations[1], events


def assert_same(kind, make_scenario, make_driver, probe=None, until=None):
    oracle, product, events = run_both(kind, make_scenario, make_driver, probe, until)
    assert product == oracle
    assert events[1] < events[0]
    return oracle


def short(profile, seed, duration=120.0):
    config = ScenarioConfig(video_duration_s=duration)
    return lambda: Scenario(profile, seed=seed, config=config)


#: Playback grids: the default 0.1 s; 0.25 s, whose accumulated
#: instants are exact multiples; 0.3 s, whose drift off them (twelve
#: steps accumulate to 3.599999999999999).
TICKS = [0.1, 0.25, 0.3]


def on_grid(config: PlayerConfig, tick_s: float) -> PlayerConfig:
    return replace(config, tick_s=tick_s)


def thin(mbps: float):
    """The testbed with both access links cut to ``mbps`` / 0.6 x ``mbps``."""
    profile = testbed_profile()
    return profile.with_(
        wifi=replace(profile.wifi, mean_mbps=mbps),
        lte=replace(profile.lte, mean_mbps=0.6 * mbps),
    )


# -- stop conditions -----------------------------------------------------------


@pytest.mark.parametrize("tick_s", TICKS)
@pytest.mark.parametrize("profile", [testbed_profile, youtube_profile])
@pytest.mark.parametrize("stop", ["prebuffer", "cycles", "full"])
def test_msplayer_stop_conditions(profile, stop, tick_s):
    config = on_grid(PlayerConfig(), tick_s)
    oracle = assert_same(
        "ms",
        short(profile(), seed=3, duration=150.0),
        lambda cls, sc: cls(sc, config, stop=stop, target_cycles=2),
    )
    assert oracle["stop_reason"] == {
        "prebuffer": "prebuffer-complete",
        "cycles": "cycles-complete",
        "full": "playback-finished",
    }[stop]


@pytest.mark.parametrize("tick_s", TICKS)
@pytest.mark.parametrize("chunk", [FLASH_CHUNK, HTML5_CHUNK])
@pytest.mark.parametrize("stop", ["prebuffer", "cycles", "full"])
def test_single_path_stop_conditions(chunk, stop, tick_s):
    config = on_grid(PlayerConfig(), tick_s)
    oracle = assert_same(
        "sp",
        short(youtube_profile(), seed=4, duration=150.0),
        lambda cls, sc: cls(sc, 0, chunk, config, stop=stop, target_cycles=2),
    )
    assert oracle["stop_reason"] != "timeout"


@pytest.mark.parametrize("tick_s", TICKS)
@pytest.mark.parametrize("controller", [ThroughputController, BufferBasedController])
@pytest.mark.parametrize("stop", ["prebuffer", "full"])
def test_adaptive_stop_conditions(controller, stop, tick_s):
    config = on_grid(PlayerConfig(), tick_s)
    assert_same(
        "ad",
        short(youtube_profile(), seed=5, duration=150.0),
        lambda cls, sc: cls(sc, controller(), config, stop=stop),
    )


@pytest.mark.parametrize("tick_s", TICKS)
def test_watchdog_timeout(tick_s):
    """On the 0.25-s grid the watchdog fires on a tick instant, 25.0 s:
    the tick the ticker had queued there still runs before the session's
    ``finished`` is processed."""
    config = on_grid(PlayerConfig(), tick_s)
    oracle = assert_same(
        "ms",
        short(testbed_profile(), seed=5, duration=60.0),
        lambda cls, sc: cls(sc, config, stop="full", max_sim_time=25.0),
    )
    assert oracle["stop_reason"] == "timeout"


@pytest.mark.parametrize("tick_s", TICKS)
@pytest.mark.parametrize("kind", ["ms", "sp", "ad"])
@pytest.mark.parametrize("stop", ["prebuffer", "full"])
def test_watchdog_of_a_finished_session(kind, stop, tick_s):
    """A shared environment may run past a finished session's
    ``launch + max_sim_time``; its watchdog still fires there and must
    change nothing — a prebuffer-stop buffer has drained on no tick since,
    a full-stop one sits at the end of the video."""
    leading = {"ms": (), "sp": (0, HTML5_CHUNK), "ad": (ThroughputController(),)}[kind]
    config = on_grid(PlayerConfig(), tick_s)
    oracle = assert_same(
        kind,
        short(testbed_profile(), seed=2, duration=60.0),
        lambda cls, sc: cls(sc, *leading, config, stop=stop, max_sim_time=150.0),
        until=160.0,
    )
    assert oracle["finished_at"] < 150.0
    assert oracle["stop_reason"] == {
        "prebuffer": "prebuffer-complete",
        "full": "playback-finished",
    }[stop]


def test_a_gate_opened_by_a_tick_queued_before_the_poll():
    """A poll that lands on the crossing tick's instant runs after the
    tick when the tick was queued from an earlier instant, and sees the
    gate open.  The floats make it exact: the poller sleeps from just
    after the tick grid's 0.2, and 0.2 + ulp + 0.1 == 0.2 + 0.1."""
    dt, anchor = 0.1, math.nextafter(0.2, math.inf)
    crossing = 0.1 + 0.1 + 0.1
    assert anchor + dt == crossing and anchor > 0.1 + 0.1

    def world():
        env = Environment()
        # STEADY 0.25 s above the watermark: the third tick turns fetch ON.
        config = PlayerConfig(prebuffer_s=10.25, low_watermark_s=10.0)
        buffer = PlayoutBuffer(config, 60.0)
        buffer.on_data(10.25, 0.0)
        return env, buffer

    def poller(env, buffer, seen, wait):
        yield env.timeout(anchor)
        while not buffer.fetch_on:
            yield wait()
        seen.append(env.now)

    env, buffer = world()
    ticked: list[float] = []

    def ticker():
        while True:
            yield env.timeout(dt)
            buffer.on_tick(dt, env.now)

    env.process(ticker())
    env.process(poller(env, buffer, ticked, lambda: env.timeout(dt)))
    env.run(until=1.0)

    env, buffer = world()
    clocked: list[float] = []
    clock = PlayoutClock(env, QoEMetrics(), dt)
    clock.buffer = buffer
    clock.launch()
    clock.rearm()
    env.process(poller(env, buffer, clocked, clock.park))
    env.run(until=1.0)

    assert clocked == ticked == [crossing]


# -- stalls ----------------------------------------------------------------------------

STALLING = PlayerConfig(prebuffer_s=10.0, low_watermark_s=5.0, rebuffer_fetch_s=10.0)


@pytest.mark.parametrize("tick_s", TICKS)
@pytest.mark.parametrize(
    "kind,make_driver",
    [
        ("ms", lambda cls, sc, config: cls(sc, config, stop="full")),
        ("sp", lambda cls, sc, config: cls(sc, 0, HTML5_CHUNK, config, stop="full")),
        ("ad", lambda cls, sc, config: cls(sc, FixedBitrateController(22), config, stop="full")),
    ],
)
def test_stalling_session(kind, make_driver, tick_s):
    config = on_grid(STALLING, tick_s)
    oracle = assert_same(
        kind,
        short(thin(1.5), seed=1, duration=60.0),
        lambda cls, sc: make_driver(cls, sc, config),
    )
    assert len(oracle["metrics"]["stalls"]) >= 3
    assert oracle["stop_reason"] == "playback-finished"


# -- an outage on the tick grid ----------------------------------------------------------


#: The grids of ``TICKS`` that hit 19.0 s exactly.  On the 0.1-s grid
#: it is the only whole second the accumulated instants hit.
OUTAGE_TICKS = [0.1, 0.25]


@pytest.mark.parametrize("tick_s", OUTAGE_TICKS)
def test_nineteen_seconds_is_a_grid_instant(tick_s):
    t = 0.0
    for _ in range(round(19.0 / tick_s)):
        t = t + tick_s
    assert t == 19.0


#: Re-buffering with a WiFi chunk in flight when WiFi drops at 19.0 s: the
#: chunk's failure is handled at the instant of a (no-op) playback tick.
OUTAGE_CONFIG = PlayerConfig(prebuffer_s=20.0, low_watermark_s=15.0, rebuffer_fetch_s=10.0)


def outage_at_19(seed: int = 3):
    profile = youtube_profile().with_(outages=mobility_profile(19.0, 30.0).outages)
    return short(profile, seed=seed)


@pytest.mark.parametrize("tick_s", OUTAGE_TICKS)
def test_interface_outage_on_a_tick_instant_msplayer(tick_s):
    seen = {}

    def probe(scenario, driver):
        def at_19():
            yield scenario.env.timeout(19.0)
            session = driver.session
            seen[type(driver)] = (
                session.buffer.phase,
                session.ledger.in_flight_for(0) is not None,
            )

        scenario.env.process(at_19())

    oracle = assert_same(
        "ms",
        outage_at_19(),
        lambda cls, sc: cls(sc, on_grid(OUTAGE_CONFIG, tick_s), stop="full"),
        probe,
    )
    assert seen[MSPlayerDriver] == (BufferPhase.REBUFFERING, True)
    assert oracle["stop_reason"] == "playback-finished"
    assert oracle["metrics"]["rebuffer_bytes_by_path"][1] > 0


@pytest.mark.parametrize("tick_s", OUTAGE_TICKS)
def test_interface_outage_on_a_tick_instant_single_path(tick_s):
    oracle = assert_same(
        "sp",
        outage_at_19(),
        lambda cls, sc: cls(sc, 0, FLASH_CHUNK, on_grid(OUTAGE_CONFIG, tick_s), stop="full"),
    )
    assert oracle["stop_reason"].startswith("failed")


@pytest.mark.parametrize("tick_s", OUTAGE_TICKS)
def test_interface_outage_on_a_tick_instant_adaptive(tick_s):
    assert_same(
        "ad",
        outage_at_19(),
        lambda cls, sc: cls(
            sc, ThroughputController(), on_grid(OUTAGE_CONFIG, tick_s), stop="full"
        ),
    )


# -- failover and requeue --------------------------------------------------------------


@pytest.mark.parametrize("tick_s", TICKS)
def test_server_crash_failover(tick_s):
    def probe(scenario, driver):
        def crash():
            yield scenario.env.timeout(3.0)
            scenario.deployment.pools["wifi-net"].video_hosts[0].fail()

        scenario.env.process(crash())

    config = on_grid(PlayerConfig(), tick_s)
    oracle = assert_same(
        "ms",
        short(youtube_profile(), seed=61, duration=90.0),
        lambda cls, sc: cls(sc, config, stop="full"),
        probe,
    )
    assert oracle["metrics"]["failovers"] >= 1


@pytest.mark.parametrize("tick_s", TICKS)
def test_adaptive_requeue_wakes_the_parked_path(monkeypatch, tick_s):
    """WiFi fails mid-segment; the segment is requeued while the LTE
    loop is parked behind ``next >= count``, and the requeue wakes it."""
    woken = []
    open_gates = PlayoutClock.open_gates

    def spy(self, after_tick=False):
        if not after_tick and not self.finished.triggered:  # requeue, download complete
            woken.append(len(self._parked))
        open_gates(self, after_tick)

    monkeypatch.setattr(PlayoutClock, "open_gates", spy)
    config = on_grid(PlayerConfig(), tick_s)
    oracle = assert_same(
        "ad",
        short(mobility_profile(12.0, 212.0), seed=0, duration=90.0),
        lambda cls, sc: cls(sc, ThroughputController(), config, stop="full"),
    )
    assert woken[0] == 1
    assert oracle["stop_reason"] == "playback-finished"


# -- a shared environment ----------------------------------------------------------------


def population(clients: int, drivers: str, monkeypatch) -> tuple[list, dict]:
    if drivers == "oracle":
        monkeypatch.setattr(scenario_experiment, "MSPlayerDriver", ticking.MSPlayerDriver)
        monkeypatch.setattr(scenario_experiment, "AdaptiveSimDriver", ticking.AdaptiveSimDriver)
    params = get_experiment("x9").schema.resolve({"clients": clients})
    result = _x9_experiment(params).run("least_loaded")
    monkeypatch.undo()
    outcomes = [
        (
            o.finished_at,
            o.stop_reason,
            dataclasses.asdict(o.metrics),
            o.requests_by_path,
            o.path_json_delay,
            o.path_first_video_delay,
            o.peak_out_of_order,
        )
        for o in result.outcomes
    ]
    return outcomes, result.server_bytes


def test_x9_population_of_30_clients(monkeypatch):
    assert population(30, "product", monkeypatch) == population(30, "oracle", monkeypatch)


@pytest.mark.slow
def test_x9_population_of_100_clients(monkeypatch):
    assert population(100, "product", monkeypatch) == population(100, "oracle", monkeypatch)


def test_a_finished_session_plays_one_last_tick(monkeypatch):
    """In a shared environment a session outlives its finish: the ticker
    ran the tick it had already queued, then stopped, while chunks in
    flight kept landing.  The clock runs that one tick too."""

    def buffers(cls):
        drivers = []

        def recording(*args, **kwargs):
            drivers.append(cls(*args, **kwargs))
            return drivers[-1]

        monkeypatch.setattr(multi_client, "MSPlayerDriver", recording)
        multi_client.MultiClientExperiment(
            testbed_profile, client_count=4, seed=7, stop="prebuffer"
        ).run("rotate")
        monkeypatch.undo()
        return [
            (d.session.buffer.playhead_s, d.session.buffer.level_s, d.session.buffer.transitions)
            for d in drivers
        ]

    oracle = buffers(ticking.MSPlayerDriver)
    assert buffers(MSPlayerDriver) == oracle
    # Three sessions played their one tick; the last to finish ended the run.
    assert sorted(playhead for playhead, _level, _transitions in oracle) == [0.0, 0.1, 0.1, 0.1]
